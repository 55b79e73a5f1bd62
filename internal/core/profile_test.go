package core

import (
	"strings"
	"testing"
	"time"

	"rpcoib/internal/metrics"
)

// The views are tested against hand-fed records: what a client or server
// would have observed, without running one.

// kindOf resolves k the way a fresh client attached to r would.
func kindOf(r *metrics.Registry, k CallKind) *clientKind {
	m := newClientMetrics(r)
	return m.newKind(k)
}

func feedSends(r *metrics.Registry, k CallKind, sends ...sent) {
	ck := kindOf(r, k)
	for _, s := range sends {
		ck.observe(s)
	}
}

func TestSendRowsAverages(t *testing.T) {
	reg := metrics.New()
	k := CallKind{Protocol: "mapred.TaskUmbilicalProtocol", Method: "statusUpdate"}
	for i := 0; i < 4; i++ {
		feedSends(reg, k, sent{bytes: 600 + i, adjustments: 5,
			serialize: 10 * time.Microsecond, send: 4 * time.Microsecond})
	}
	// A kind whose sums do not divide evenly: the averages truncate, as the
	// paper's table (and the profiler this view replaced) did.
	odd := CallKind{Protocol: "p", Method: "odd"}
	feedSends(reg, odd,
		sent{serialize: 3, send: 1, adjustments: 1},
		sent{serialize: 4, send: 2, adjustments: 2})
	// A kind that was resolved but never sent has no row.
	kindOf(reg, CallKind{Protocol: "p", Method: "idle"})

	rows := SendRows(reg.Snapshot(0))
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want two", rows)
	}
	if r := rows[0]; r.Kind != k || r.Count != 4 || r.AvgAdjustments != 5 ||
		r.AvgSerialize != 10*time.Microsecond || r.AvgSend != 4*time.Microsecond {
		t.Errorf("statusUpdate row %+v", r)
	}
	if r := rows[1]; r.Kind != odd || r.Count != 2 || r.AvgAdjustments != 1.5 ||
		r.AvgSerialize != 3 || r.AvgSend != 1 {
		t.Errorf("odd row %+v", r)
	}
}

func TestSendRowsSorted(t *testing.T) {
	reg := metrics.New()
	for _, k := range []CallKind{{"b", "z"}, {"a", "y"}, {"a", "x"}} {
		feedSends(reg, k, sent{serialize: 1, send: 1})
	}
	var got []string
	for _, r := range SendRows(reg.Snapshot(0)) {
		got = append(got, r.Kind.String())
	}
	if strings.Join(got, " ") != "a.x a.y b.z" {
		t.Fatalf("order %v", got)
	}
}

func TestFormatTableI(t *testing.T) {
	reg := metrics.New()
	feedSends(reg, CallKind{"hdfs.ClientProtocol", "getFileInfo"},
		sent{bytes: 100, adjustments: 2, serialize: 70 * time.Microsecond, send: 57 * time.Microsecond})
	out := FormatTableI(reg.Snapshot(0))
	for _, want := range []string{"hdfs.ClientProtocol", "getFileInfo", "2.0", "70.0", "57.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}
}

func TestAllocShares(t *testing.T) {
	reg := metrics.New()
	m := newServerMetrics(reg)
	recv := func(method string, alloc, serialize, transport time.Duration) {
		md := m.newMethodDef("p", method, nil, nil)
		md.alloc.ObserveDuration(alloc)
		md.serialize.ObserveDuration(serialize)
		md.transport.ObserveDuration(transport)
	}
	// Receive time is the serialize stage plus the wire occupancy.
	recv("a", 3*time.Microsecond, 6*time.Microsecond, 4*time.Microsecond)
	recv("b", 1*time.Microsecond, 10*time.Microsecond, 0)
	m.newMethodDef("p", "registered-only", nil, nil)

	snap := reg.Snapshot(0)
	shares := AllocShares(snap)
	if len(shares) != 2 || shares[0].Kind != (CallKind{"p", "a"}) || shares[1].Kind != (CallKind{"p", "b"}) {
		t.Fatalf("shares = %+v", shares)
	}
	if got := shares[0].Ratio(); got != 0.3 {
		t.Errorf("share of a = %v, want 0.3", got)
	}
	if got := shares[1].Ratio(); got != 0.1 {
		t.Errorf("share of b = %v, want 0.1", got)
	}
	if got := AllocRatio(snap); got != 0.2 {
		t.Errorf("overall ratio = %v, want 0.2", got)
	}
	if got := AllocRatio(metrics.Snapshot{}); got != 0 {
		t.Errorf("empty snapshot ratio = %v", got)
	}
}

func TestSizeClass(t *testing.T) {
	cases := map[int]int{0: 128, 1: 128, 128: 128, 129: 256, 430: 512, 2048: 2048, 2049: 4096}
	for in, want := range cases {
		if got := SizeClass(in); got != want {
			t.Errorf("SizeClass(%d)=%d want %d", in, got, want)
		}
	}
}

func TestSizeLocality(t *testing.T) {
	locality := func(sizes ...int) SizeLocality {
		reg := metrics.New()
		k := CallKind{"p", "m"}
		for _, n := range sizes {
			feedSends(reg, k, sent{bytes: n})
		}
		return SizeLocalityOf(reg.Snapshot(0), k)
	}
	// Perfect locality: all sizes in one class.
	if l := locality(430, 431, 440, 450); l.Locality != 1 || l.Calls != 4 || l.Classes[512] != 4 || len(l.Classes) != 1 {
		t.Errorf("one class: %+v", l)
	}
	// No locality: alternating classes. Each send here comes from a fresh
	// client record, so this is also the all-clients interleaving: the
	// previous class is the registry's, not one client's.
	if l := locality(100, 1000, 100, 1000); l.Locality != 0 || l.Classes[128] != 2 || l.Classes[1024] != 2 {
		t.Errorf("alternating: %+v", l)
	}
	if l := locality(100, 100, 1000, 1000, 1000); l.Locality != 0.75 {
		t.Errorf("3 repeats in 4 steps: %+v", l)
	}
	if l := locality(); l.Locality != 0 || l.Calls != 0 {
		t.Errorf("empty: %+v", l)
	}
	if l := locality(5); l.Locality != 1 {
		t.Errorf("single: %+v", l)
	}
	// Beyond the largest class the overflow bucket reports the next one up.
	if l := locality(200 << 20); l.Classes[256<<20] != 1 {
		t.Errorf("overflow: %+v", l)
	}
}

// TestSizeLocalityKeepsEverySample: the view is counters, so a long run is
// counted whole (the profiler it replaced kept 100 000 sizes per kind and
// dropped the rest).
func TestSizeLocalityKeepsEverySample(t *testing.T) {
	reg := metrics.New()
	k := CallKind{"p", "m"}
	ck := kindOf(reg, k)
	const n = 100_007
	for i := 0; i < n; i++ {
		ck.observe(sent{bytes: 256})
	}
	if l := SizeLocalityOf(reg.Snapshot(0), k); l.Calls != n || l.Classes[256] != n || l.Locality != 1 {
		t.Fatalf("%+v", l)
	}
}

func TestViewsWithoutRegistry(t *testing.T) {
	ck := kindOf(nil, CallKind{"p", "m"})
	ck.observe(sent{bytes: 1})
	ck.issued.Inc()
	ck.failed.Inc()
	ck.rtt.ObserveExemplar(1, 0)
	if ck.poolKey != poolKey("p", "m") {
		t.Errorf("pool key %q", ck.poolKey)
	}
	var none metrics.Snapshot
	if SendRows(none) != nil || AllocShares(none) != nil || SizeLocalityOf(none, CallKind{}).Calls != 0 {
		t.Error("empty snapshot produced rows")
	}
}
