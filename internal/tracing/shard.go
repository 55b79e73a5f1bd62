// Span collection for the sharded kernel (DESIGN.md S22, S37).
//
// The Tracer/Sink pair hands out span IDs from one global counter, in the
// order spans start — an order that depends on how nodes are grouped into
// shards, since each round runs the shards' windows one after another.
// Sharded scenarios instead append spans to one buffer, give spans IDs
// derived from node-local streams, and merge the buffer after the run in
// deterministic (StartNS, Trace, ID) order.
//
// Volume is bounded by deterministic head sampling on the trace ID (a
// splitmix64 hash, so the kept set is layout-invariant) plus a buffer cap as
// a safety backstop. Cap overflow is counted, never silent — but unlike
// sampling it keeps the first spans in execution order, which is NOT
// layout-invariant, so replay-compared runs must stay under the cap (the
// hammer asserts zero drops).
package tracing

import "sort"

// maxShardSpans caps a ShardSpans buffer.
const maxShardSpans = 1 << 20

// ShardSpans collects spans from every shard of a sharded run. The shards
// run in turn on one goroutine, so Emit needs no synchronization.
type ShardSpans struct {
	buf     []Span
	cap     int
	drops   int64
	sampleN uint64
}

// NewShardSpans creates a span buffer. sampleN keeps roughly 1 in sampleN
// traces, chosen by trace-ID hash (<=1 keeps all).
func NewShardSpans(sampleN uint64) *ShardSpans {
	return &ShardSpans{cap: maxShardSpans, sampleN: sampleN}
}

// Sampled reports whether a trace ID is in the kept set. Exported so call
// sites can skip building attribute maps for spans that would be discarded.
func (ss *ShardSpans) Sampled(trace uint64) bool {
	return ss.sampleN <= 1 || mix(trace)%ss.sampleN == 0
}

// Emit records one span.
func (ss *ShardSpans) Emit(sp Span) {
	if !ss.Sampled(sp.Trace) {
		return
	}
	if len(ss.buf) >= ss.cap {
		ss.drops++
		return
	}
	ss.buf = append(ss.buf, sp)
}

// Dropped reports cap-overflow drops.
func (ss *ShardSpans) Dropped() int64 { return ss.drops }

// Merge emits every collected span through sink in deterministic
// (StartNS, Trace, ID) order and returns the count. Call it after the run;
// the buffer is consumed.
func (ss *ShardSpans) Merge(sink *Sink) int {
	all := ss.buf
	ss.buf = nil
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		return a.ID < b.ID
	})
	for _, sp := range all {
		sink.Emit(sp)
	}
	return len(all)
}
