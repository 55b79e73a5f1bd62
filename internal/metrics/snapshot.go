package metrics

import (
	"fmt"
	"time"
)

// Snapshot is a point-in-time copy of a registry. AtNS is the elapsed time
// (in nanoseconds) the caller stamped it with — virtual time when taken from
// inside a simulation.
type Snapshot struct {
	AtNS       int64                   `json:"at_ns"`
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// At returns the snapshot timestamp as a duration.
func (s Snapshot) At() time.Duration { return time.Duration(s.AtNS) }

// HistSnapshot is a copied histogram state. Counts has one entry per bound
// plus a final overflow bucket.
type HistSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
	// Exemplars maps bucket index -> trace ID of the last traced observation
	// that landed there (absent when the caller never attached exemplars).
	Exemplars map[int]uint64 `json:"exemplars,omitempty"`
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the bucket that holds the target rank, clamped to the observed
// min/max so small samples do not report values never seen. Values that
// landed in the overflow bucket report the observed max.
func (h HistSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		prev := cum
		cum += float64(n)
		if cum < rank {
			continue
		}
		if i == len(h.Bounds) {
			return h.Max
		}
		lo := h.Min
		if i > 0 && h.Bounds[i-1] > lo {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		if h.Max < hi {
			hi = h.Max
		}
		if hi <= lo {
			return hi
		}
		frac := (rank - prev) / float64(n)
		return lo + int64(frac*float64(hi-lo))
	}
	return h.Max
}

// Diff returns s minus prev for counters and histograms (gauges keep their
// level from s) — the per-interval view a sequence of JSONL snapshots is
// meant to support.
func Diff(s, prev Snapshot) Snapshot {
	out := Snapshot{
		AtNS:       s.AtNS,
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	for name, v := range s.Counters {
		if d := v - prev.Counters[name]; d != 0 {
			out.Counters[name] = d
		}
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		p, ok := prev.Histograms[name]
		if !ok {
			out.Histograms[name] = h
			continue
		}
		if !equalBounds(h.Bounds, p.Bounds) {
			panic(fmt.Sprintf("metrics: diffing histogram %q with different bounds", name))
		}
		d := HistSnapshot{
			Bounds: h.Bounds,
			Counts: append([]int64(nil), h.Counts...),
			Count:  h.Count - p.Count,
			Sum:    h.Sum - p.Sum,
			Min:    h.Min,
			Max:    h.Max,
		}
		for i, n := range p.Counts {
			d.Counts[i] -= n
		}
		if d.Count != 0 {
			out.Histograms[name] = d
		}
	}
	return out
}
