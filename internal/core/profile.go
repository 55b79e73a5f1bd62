package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rpcoib/internal/metrics"
)

// The paper's profiling artefacts as views over a metrics.Snapshot. The
// engine keeps one record per call kind (clientKind, methodDef); these
// functions read Table I, Figure 1 and Figure 3 back out of the families
// those records feed, so a snapshot — live, diffed, or loaded from a JSONL
// report — is all a reader needs.

// CallKind identifies a call kind, the paper's <protocol, method> tuple.
type CallKind struct {
	Protocol string
	Method   string
}

// String formats the kind as "protocol.method".
func (k CallKind) String() string { return k.Protocol + "." + k.Method }

func (k CallKind) less(o CallKind) bool {
	if k.Protocol != o.Protocol {
		return k.Protocol < o.Protocol
	}
	return k.Method < o.Method
}

// sizeClassBounds are the msgBytes histogram's buckets: Figure 3's size
// classes, powers of two from 128 B to 128 MB.
var sizeClassBounds = func() []int64 {
	bounds := make([]int64, 21)
	for i := range bounds {
		bounds[i] = 128 << i
	}
	return bounds
}()

// SizeClass returns the paper's Figure 3 size class for a message: the
// smallest power-of-two bucket >= 128 bytes that holds it.
func SizeClass(size int) int {
	class := 128
	for class < size {
		class *= 2
	}
	return class
}

// stageSums collects Sum and Count of every stage histogram of one family,
// per call kind. Kinds that were registered but never observed are skipped.
func stageSums(s metrics.Snapshot, family string) map[CallKind]map[string]metrics.HistSnapshot {
	out := map[CallKind]map[string]metrics.HistSnapshot{}
	for name, h := range s.Histograms {
		base, labels := metrics.SplitLabels(name)
		if base != family || h.Count == 0 {
			continue
		}
		k := CallKind{labels["protocol"], labels["method"]}
		if out[k] == nil {
			out[k] = map[string]metrics.HistSnapshot{}
		}
		out[k][labels["stage"]] = h
	}
	return out
}

// SendRow is one Table I row: a call kind's send count and its average
// buffer adjustments, serialization time and send time.
type SendRow struct {
	Kind           CallKind
	Count          int64
	AvgAdjustments float64
	AvgSerialize   time.Duration
	AvgSend        time.Duration
}

// SendRows returns Table I, sorted by kind.
func SendRows(s metrics.Snapshot) []SendRow {
	var rows []SendRow
	for k, stages := range stageSums(s, mClientStageNS) {
		// Every sent request observes both stages, so one count serves both.
		ser, send := stages[stageSerialize], stages[stageSend]
		if ser.Count == 0 {
			continue
		}
		adj := s.Counters[metrics.Labels(mClientAdjustments, "protocol", k.Protocol, "method", k.Method)]
		rows = append(rows, SendRow{
			Kind:           k,
			Count:          ser.Count,
			AvgAdjustments: float64(adj) / float64(ser.Count),
			AvgSerialize:   time.Duration(ser.Sum / ser.Count),
			AvgSend:        time.Duration(send.Sum / ser.Count),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Kind.less(rows[j].Kind) })
	return rows
}

// FormatTableI renders Table I in the paper's column layout.
func FormatTableI(s metrics.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %-24s %6s %10s %12s %10s\n",
		"Protocol", "Method", "Calls", "AvgAdjust", "AvgSer(us)", "AvgSend(us)")
	for _, r := range SendRows(s) {
		fmt.Fprintf(&b, "%-34s %-24s %6d %10.1f %12.1f %10.1f\n",
			r.Kind.Protocol, r.Kind.Method, r.Count, r.AvgAdjustments,
			float64(r.AvgSerialize)/float64(time.Microsecond),
			float64(r.AvgSend)/float64(time.Microsecond))
	}
	return b.String()
}

// AllocShare is one call kind's Figure 1 ratio: buffer-allocation time over
// call receive time (processing plus the inbound message's wire occupancy).
type AllocShare struct {
	Kind         CallKind
	Alloc, Total time.Duration
}

// Ratio is Alloc / Total (0 when nothing was received).
func (a AllocShare) Ratio() float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Alloc) / float64(a.Total)
}

// AllocShares returns the server-side allocation share of every call kind
// that was received, sorted by kind.
func AllocShares(s metrics.Snapshot) []AllocShare {
	var shares []AllocShare
	for k, stages := range stageSums(s, mServerStageNS) {
		if stages[stageSerialize].Count == 0 {
			continue
		}
		shares = append(shares, AllocShare{Kind: k, Alloc: time.Duration(stages[stageAlloc].Sum),
			Total: time.Duration(stages[stageSerialize].Sum + stages[stageTransport].Sum)})
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].Kind.less(shares[j].Kind) })
	return shares
}

// AllocRatio is Figure 1's Y axis: over all call kinds, buffer-allocation
// time divided by call receive time.
func AllocRatio(s metrics.Snapshot) float64 {
	var all AllocShare
	for _, a := range AllocShares(s) {
		all.Alloc += a.Alloc
		all.Total += a.Total
	}
	return all.Ratio()
}

// SizeLocality is one Figure 3 series: how a kind's request sizes spread over
// the size classes, and the fraction of consecutive sends that stayed in the
// same class — the paper's Message Size Locality.
type SizeLocality struct {
	Calls    int64
	Locality float64
	Classes  map[int]int64 // size class -> sends
}

// SizeLocalityOf returns the Figure 3 series of one call kind. A single send
// has locality 1, none has 0.
func SizeLocalityOf(s metrics.Snapshot, k CallKind) SizeLocality {
	h := s.Histograms[metrics.Labels(mClientMsgBytes, "protocol", k.Protocol, "method", k.Method)]
	out := SizeLocality{Calls: h.Count, Classes: map[int]int64{}}
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		if i < len(h.Bounds) {
			out.Classes[int(h.Bounds[i])] = n
		} else { // the overflow bucket reports as the next class up
			out.Classes[2*int(h.Bounds[i-1])] = n
		}
	}
	switch {
	case h.Count == 1:
		out.Locality = 1
	case h.Count > 1:
		repeats := s.Counters[metrics.Labels(mClientMsgClassRepeats, "protocol", k.Protocol, "method", k.Method)]
		out.Locality = float64(repeats) / float64(h.Count-1)
	}
	return out
}
