package tracing

import (
	"bytes"
	"io"
	"sort"
	"sync"

	"rpcoib/internal/metrics"
)

// SinkOptions bound the sink's memory. Zero values take the defaults.
type SinkOptions struct {
	// MaxBuffered caps retained records when the sink has no writer
	// (in-memory mode, used by tests and the replay checks). Default 4096.
	MaxBuffered int
	// MaxPendingTraces caps how many unfinished traces the tail-sampling
	// buffer holds at once. Default 1024.
	MaxPendingTraces int
	// MaxSpansPerTrace caps buffered spans per pending trace. Default 512.
	MaxSpansPerTrace int
}

const (
	defaultMaxBuffered      = 4096
	defaultMaxPendingTraces = 1024
	defaultMaxSpansPerTrace = 512
)

// Sink streams span records as JSONL with constant memory. With a writer it
// streams each record immediately (tail mode excepted); without one it
// retains up to MaxBuffered encoded records for in-process inspection.
// Overflow in either mode is dropped and counted — the record is lost but
// the loss is visible, never silent.
type Sink struct {
	mu      sync.Mutex
	w       io.Writer
	opt     SinkOptions
	tail    bool
	enc     []byte              // the record being emitted, reused
	buf     [][]byte            // in-memory mode retention
	pending map[uint64][][]byte // tail mode: trace ID -> encoded spans
	order   []uint64            // tail mode: pending trace IDs, admission order
	drops   int64
	dropped *metrics.Counter // set by Tracer.Instrument; nil-safe
}

// NewSink creates a sink writing JSONL to w. A nil w keeps records in a
// bounded in-memory buffer instead (Bytes drains it).
func NewSink(w io.Writer, opt SinkOptions) *Sink {
	if opt.MaxBuffered <= 0 {
		opt.MaxBuffered = defaultMaxBuffered
	}
	if opt.MaxPendingTraces <= 0 {
		opt.MaxPendingTraces = defaultMaxPendingTraces
	}
	if opt.MaxSpansPerTrace <= 0 {
		opt.MaxSpansPerTrace = defaultMaxSpansPerTrace
	}
	return &Sink{w: w, opt: opt}
}

// setTail switches the sink into tail-sampling mode: spans of live traces
// are buffered per trace until the tracer's EndTrace verdict. Called by
// Tracer wiring before any emission.
func (s *Sink) setTail() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tail = true
	s.pending = map[uint64][][]byte{}
}

// Emit encodes and routes one span record. The record is json.Marshal's
// encoding of the span, attribute keys sorted, so records — and therefore
// whole trace files — are byte-identical across same-seed runs. It is
// encoded into the sink's own buffer: a streaming sink writes it from
// there, and only a sink that keeps records (in memory or tail-buffered)
// copies it.
func (s *Sink) Emit(sp *Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enc = appendRecord(s.enc[:0], sp)
	line := s.enc
	if s.tail && sp.Trace != 0 {
		spans, live := s.pending[sp.Trace]
		if !live {
			if len(s.order) >= s.opt.MaxPendingTraces {
				s.dropLocked(1)
				return
			}
			s.order = append(s.order, sp.Trace)
		}
		if len(spans) >= s.opt.MaxSpansPerTrace {
			s.dropLocked(1)
			return
		}
		s.pending[sp.Trace] = append(spans, bytes.Clone(line))
		return
	}
	s.writeLocked(line)
}

// EndTrace resolves a tail-buffered trace: keep flushes its spans to the
// output, !keep discards them. Returns how many spans were flushed and
// discarded. No-op outside tail mode.
func (s *Sink) EndTrace(trace uint64, keep bool) (flushed, discarded int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	spans, ok := s.pending[trace]
	if !ok {
		return 0, 0
	}
	delete(s.pending, trace)
	for i, id := range s.order {
		if id == trace {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if !keep {
		return 0, len(spans)
	}
	for _, line := range spans {
		s.writeLocked(line)
	}
	return len(spans), 0
}

// writeLocked sends one encoded record to the writer or, as a copy, to the
// bounded in-memory buffer; failures become counted drops.
func (s *Sink) writeLocked(line []byte) {
	if s.w != nil {
		if _, err := s.w.Write(line); err != nil {
			s.dropLocked(1)
		}
		return
	}
	if len(s.buf) >= s.opt.MaxBuffered {
		s.dropLocked(1)
		return
	}
	s.buf = append(s.buf, bytes.Clone(line))
}

// Close flushes tail-pending traces that never got a verdict (in-flight
// calls at shutdown), in ascending trace-ID order for determinism.
func (s *Sink) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		return
	}
	ids := make([]uint64, 0, len(s.pending))
	for id := range s.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		for _, line := range s.pending[id] {
			s.writeLocked(line)
		}
		delete(s.pending, id)
	}
	s.order = s.order[:0]
}

// Bytes returns the concatenated in-memory records (nil with a writer set).
func (s *Sink) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []byte
	for _, line := range s.buf {
		out = append(out, line...)
	}
	return out
}

// Dropped reports how many records were lost to overflow or write errors.
func (s *Sink) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drops
}

func (s *Sink) dropLocked(n int64) {
	s.drops += n
	s.dropped.Add(n)
}
