package metrics

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentWriters hammers one registry from parallel goroutines (run
// under -race in CI) and checks the totals add up.
func TestConcurrentWriters(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("ops_total")
			g := r.Gauge("depth")
			h := r.Histogram("lat_ns", nil)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(int64(i%1000) * int64(time.Microsecond))
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot(0)
	if got := s.Counters["ops_total"]; got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := s.Gauges["depth"]; got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := s.Histograms["lat_ns"].Count; got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestQuantileAgainstOracle checks bucket-interpolated quantiles stay within
// one bucket width of the exact sorted-slice quantile.
func TestQuantileAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := &Histogram{bounds: DurationBuckets()}
	h.counts = make([]int64, len(h.bounds)+1)
	var values []int64
	for i := 0; i < 5000; i++ {
		// Log-uniform over the interesting latency range.
		v := int64(time.Microsecond) << uint(rng.Intn(20))
		v += rng.Int63n(v)
		values = append(values, v)
		h.Observe(v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	snap := h.snapshot()
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1.0} {
		idx := int(q*float64(len(values))) - 1
		if idx < 0 {
			idx = 0
		}
		oracle := values[idx]
		got := snap.Quantile(q)
		// The estimate must land within the bucket that contains the oracle:
		// [bound below oracle, bound above oracle].
		bi := sort.Search(len(snap.Bounds), func(i int) bool { return oracle <= snap.Bounds[i] })
		lo, hi := int64(0), snap.Max
		if bi > 0 {
			lo = snap.Bounds[bi-1]
		}
		if bi < len(snap.Bounds) && snap.Bounds[bi] < hi {
			hi = snap.Bounds[bi]
		}
		if got < lo || got > hi {
			t.Errorf("q=%.2f: estimate %d outside oracle bucket [%d, %d] (oracle %d)", q, got, lo, hi, oracle)
		}
	}
	if snap.Quantile(1.0) != snap.Max {
		t.Errorf("q=1 should report max %d, got %d", snap.Max, snap.Quantile(1.0))
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	h := &Histogram{bounds: []int64{10, 100}}
	h.counts = make([]int64, 3)
	h.Observe(7)
	s := h.snapshot()
	if got := s.Quantile(0.5); got != 7 {
		t.Errorf("single-sample median = %d, want 7", got)
	}
	h.Observe(1000) // overflow bucket
	if got := h.snapshot().Quantile(1.0); got != 1000 {
		t.Errorf("overflow quantile = %d, want 1000", got)
	}
}

func TestDiff(t *testing.T) {
	a := New()
	a.Counter("n").Add(3)
	a.Histogram("h", nil).Observe(int64(time.Millisecond))

	before := a.Snapshot(0)
	a.Counter("n").Add(10)
	a.Histogram("h", nil).Observe(int64(time.Millisecond))
	d := Diff(a.Snapshot(time.Minute), before)
	if d.Counters["n"] != 10 {
		t.Errorf("diff counter = %d, want 10", d.Counters["n"])
	}
	if d.Histograms["h"].Count != 1 {
		t.Errorf("diff histogram count = %d, want 1", d.Histograms["h"].Count)
	}
}

// TestNilSafety: a nil registry and nil instruments must be inert; the engine
// instruments unconditionally and relies on it.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(5)
	if prev := r.Gauge("g").Swap(7); prev != 0 {
		t.Errorf("nil gauge Swap returned %d", prev)
	}
	r.Histogram("h", nil).Observe(1)
	if s := r.Snapshot(time.Second); len(s.Counters) != 0 || s.AtNS != int64(time.Second) {
		t.Errorf("nil registry snapshot: %+v", s)
	}
	var l *Log
	l.Span("x", 0, 0)
	l.Snapshot("x", r, 0)
	if l.Events() != nil {
		t.Error("nil log accumulated events")
	}
}

// TestExportDeterminism: two identical registries must export byte-identical
// text and JSONL, the property run-report diffing depends on.
func TestExportDeterminism(t *testing.T) {
	build := func() (*Registry, *Log) {
		r := New()
		for _, name := range []string{"b_total", "a_total", "z_total"} {
			r.Counter(name).Add(int64(len(name)))
		}
		r.Gauge("depth").Set(3)
		h := r.Histogram(Labels("lat_ns", "method", "ping", "stage", "handle"), nil)
		for i := 1; i <= 100; i++ {
			h.Observe(int64(i) * int64(time.Microsecond))
		}
		l := &Log{}
		l.Span("run1", time.Second, time.Second)
		l.Snapshot("run1", r, time.Second)
		return r, l
	}
	r1, l1 := build()
	r2, l2 := build()
	var t1, t2, j1, j2 bytes.Buffer
	if err := WriteText(&t1, r1.Snapshot(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&t2, r2.Snapshot(time.Second)); err != nil {
		t.Fatal(err)
	}
	if t1.String() != t2.String() {
		t.Error("text export nondeterministic")
	}
	if err := l1.WriteJSONL(&j1); err != nil {
		t.Fatal(err)
	}
	if err := l2.WriteJSONL(&j2); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() {
		t.Error("JSONL export nondeterministic")
	}
	if !strings.Contains(t1.String(), `lat_ns_bucket{method="ping",stage="handle",le=`) {
		t.Errorf("labelled histogram series malformed:\n%s", t1.String())
	}
	if !strings.Contains(j1.String(), `"event":"span"`) || !strings.Contains(j1.String(), `"event":"snapshot"`) {
		t.Errorf("JSONL missing events:\n%s", j1.String())
	}
}

func TestLabels(t *testing.T) {
	if got := Labels("m"); got != "m" {
		t.Errorf("Labels no pairs = %q", got)
	}
	want := `m{protocol="p.X",method="do"}`
	if got := Labels("m", "protocol", "p.X", "method", "do"); got != want {
		t.Errorf("Labels = %q, want %q", got, want)
	}
	// SplitLabels inverts Labels, quoting included, and leaves malformed
	// names whole.
	name := Labels("m", "protocol", `p"{,}=`, "method", "do")
	base, kv := SplitLabels(name)
	if base != "m" || len(kv) != 2 || kv["protocol"] != `p"{,}=` || kv["method"] != "do" {
		t.Errorf("SplitLabels(%q) = %q, %v", name, base, kv)
	}
	for _, bad := range []string{"m", `m{a="b"`, `m{a}`, `m{a=b}`} {
		if base, kv := SplitLabels(bad); base != bad || kv != nil {
			t.Errorf("SplitLabels(%q) = %q, %v; want the name whole", bad, base, kv)
		}
	}
}

func TestHistogramBoundsConflict(t *testing.T) {
	r := New()
	r.Histogram("h", []int64{1, 2, 3})
	if h := r.Histogram("h", nil); h == nil {
		t.Fatal("re-fetch without bounds should return existing histogram")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bounds conflict")
		}
	}()
	r.Histogram("h", []int64{5})
}

func TestSnapshotIsCopy(t *testing.T) {
	r := New()
	h := r.Histogram("h", nil)
	h.Observe(5)
	s := r.Snapshot(0)
	h.Observe(10)
	if s.Histograms["h"].Count != 1 {
		t.Error("snapshot aliased live histogram")
	}
	if !reflect.DeepEqual(s.Histograms["h"].Bounds, DurationBuckets()) {
		t.Error("default bounds not applied")
	}
}
