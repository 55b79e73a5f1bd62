// Package metrics is the engine-wide instrumentation layer (DESIGN.md S16):
// a dependency-light registry of counters, gauges, and fixed-bucket
// histograms shared by the RPC engine, the buffer pool, the verbs layer, and
// the Hadoop substrates.
//
// The package is clock-agnostic: instruments record values, and the caller
// stamps snapshots with its own notion of elapsed time — virtual time from a
// simulated process's exec.Env under cluster.SimEnv, wall time under
// exec.RealEnv. Nothing in here reads the wall clock, draws randomness, or
// schedules work, so recording metrics never perturbs a deterministic
// simulation: two identical sim runs produce bit-identical snapshots.
//
// Every accessor and instrument method is nil-safe (a nil *Registry hands
// out nil instruments whose methods do nothing), so call sites instrument
// unconditionally. Callers on a hot path resolve an instrument once and keep
// the handle: Labels builds a string and the accessors take the registry
// lock, the instrument methods do neither.
package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count of events.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level: queue depths, busy threads, open
// connections, registered bytes.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Swap replaces the gauge value and returns the previous one (0 on nil).
func (g *Gauge) Swap(n int64) int64 {
	if g == nil {
		return 0
	}
	return g.v.Swap(n)
}

// Inc raises the gauge by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec lowers the gauge by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates a value distribution over fixed bucket bounds.
// Bounds are inclusive upper edges in ascending order; one implicit overflow
// bucket catches everything above the last bound. Fixed bounds keep
// snapshots diffable across runs and a delta stream foldable.
type Histogram struct {
	mu        sync.Mutex
	bounds    []int64
	counts    []int64 // len(bounds)+1, last is overflow
	count     int64
	sum       int64
	min       int64
	max       int64
	exemplars []uint64 // lazily allocated; last trace ID seen per bucket
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observeLocked(v)
}

// ObserveExemplar records one value and, when trace is non-zero, remembers
// it as the bucket's exemplar — the trace ID of the last call that landed in
// that latency bucket, linking `rpc_*` histograms back to followable traces.
func (h *Histogram) ObserveExemplar(v int64, trace uint64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := h.observeLocked(v)
	if trace != 0 {
		if h.exemplars == nil {
			h.exemplars = make([]uint64, len(h.counts))
		}
		h.exemplars[i] = trace
	}
}

// observeLocked records v and returns its bucket index.
func (h *Histogram) observeLocked(v int64) int {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	return i
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// snapshot copies the histogram state (bounds are shared, immutable).
func (h *Histogram) snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: append([]int64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
	for i, tr := range h.exemplars {
		if tr == 0 {
			continue
		}
		if s.Exemplars == nil {
			s.Exemplars = map[int]uint64{}
		}
		s.Exemplars[i] = tr
	}
	return s
}

// DurationBuckets returns the default latency bounds: powers of two from
// 1 us to ~34 s (26 buckets plus overflow), wide enough for a verbs CQ poll
// and a 128 GB Sort stage alike.
func DurationBuckets() []int64 {
	bounds := make([]int64, 26)
	for i := range bounds {
		bounds[i] = int64(time.Microsecond) << i
	}
	return bounds
}

// Registry holds named instruments. Get-or-create accessors make wiring
// trivial: two subsystems asking for the same name share one instrument.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. The bounds
// apply only on creation; asking again for an existing name with different
// bounds panics, since mixing bucket layouts under one name would make the
// series impossible to diff or fold.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = DurationBuckets()
		}
		h = &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
		r.hists[name] = h
		return h
	}
	if len(bounds) != 0 && !equalBounds(h.bounds, bounds) {
		panic(fmt.Sprintf("metrics: histogram %q re-registered with different bounds", name))
	}
	return h
}

func equalBounds(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Snapshot copies every instrument's current value, stamped with the
// caller's elapsed time (virtual under simulation, wall otherwise).
func (r *Registry) Snapshot(at time.Duration) Snapshot {
	s := Snapshot{AtNS: int64(at)}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Counters = make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	s.Gauges = make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	s.Histograms = make(map[string]HistSnapshot, len(r.hists))
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Labels appends label pairs to a metric name in a fixed, deterministic
// format: Labels("rpc_stage_ns", "method", "ping", "stage", "handle") is
// `rpc_stage_ns{method="ping",stage="handle"}`. Pairs are emitted in the
// order given; callers keep a stable order so names stay stable.
func Labels(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic("metrics: Labels needs key/value pairs")
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// SplitLabels is the inverse of Labels: it returns the family name and the
// label values of a series name. A name without a well-formed label block
// comes back whole, with nil labels.
func SplitLabels(name string) (string, map[string]string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, nil
	}
	labels := map[string]string{}
	for rest := name[i+1 : len(name)-1]; rest != ""; {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return name, nil
		}
		quoted, err := strconv.QuotedPrefix(rest[eq+1:])
		if err != nil {
			return name, nil
		}
		labels[rest[:eq]], _ = strconv.Unquote(quoted) // QuotedPrefix vouched for it
		if rest = rest[eq+1+len(quoted):]; rest != "" && rest[0] == ',' {
			rest = rest[1:]
		}
	}
	return name[:i], labels
}
