package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quartiles must agree with Python's statistics.quantiles(values, n=4), the
// rule the acceptance spreads are stated in.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4)
	// [1.75, 3.5, 5.25]
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v; Python gives 1.75, 5.25", q1, q3)
	}
	// >>> statistics.quantiles([10, 20], n=4)
	// [7.5, 15.0, 22.5]
	q1, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles = %v, %v; Python gives 7.5, 22.5", q1, q3)
	}
	if s := spread([]float64{100, 100, 100}); s != 0 {
		t.Errorf("spread of equal values = %v", s)
	}
}

// steady builds a result file in which every end-to-end metric reads v on
// every run of every workload.
func steady(v float64, runs int) *resultFile {
	f := &resultFile{Seconds: 1, Runs: runs, Workloads: map[string]*workloadSet{}}
	for _, w := range workloads {
		set := &workloadSet{Attempted: 100, EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{"perfmodel.sim_rtt_us_rpcoib": 92.8}}
		for _, m := range endToEnd {
			for i := 0; i < runs; i++ {
				set.EndToEnd[m.Name] = append(set.EndToEnd[m.Name], v)
			}
		}
		f.Workloads[w.Name] = set
	}
	return f
}

func TestCheckVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", steady(100, 4))

	var out bytes.Buffer
	ok, err := checkFiles(&out, base, write("same.json", steady(100, 4)))
	if err != nil || !ok || strings.Contains(out.String(), "worse") {
		t.Errorf("identical sets: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+len(workloads)*len(endToEnd) {
		t.Errorf("%d lines, want a header and one row per workload and metric", rows)
	}

	// calls_per_s is better higher: just past its bound is worse, just
	// inside is not.
	var bound float64
	for _, m := range endToEnd {
		if m.Name == "calls_per_s" {
			bound = m.Bound
		}
	}
	past, inside := 100*(1-bound)-2, 100*(1-bound)+2
	slow := steady(100, 4)
	slow.Workloads[wRealSmall].EndToEnd["calls_per_s"] = []float64{past, past, past, past}
	slow.Workloads[wRealLargePut].EndToEnd["calls_per_s"] = []float64{inside, inside, inside, inside}
	out.Reset()
	ok, err = checkFiles(&out, base, write("slow.json", slow))
	if err != nil || ok || strings.Count(out.String(), "worse") != 1 {
		t.Errorf("one metric past its bound: ok=%v err=%v\n%s", ok, err, out.String())
	}

	// A set whose own spread exceeds the bound resolves nothing.
	noisy := steady(100, 4)
	noisy.Workloads[wSimFig5].EndToEnd["calls_per_s"] = []float64{100 - 200*bound, 95, 105, 100 + 200*bound}
	out.Reset()
	ok, err = checkFiles(&out, base, write("noisy.json", noisy))
	if err != nil || !ok || strings.Count(out.String(), "unresolved") != 1 {
		t.Errorf("one noisy metric: ok=%v err=%v\n%s", ok, err, out.String())
	}

	// Exact simulated values may not move at all.
	moved := steady(100, 4)
	moved.Workloads[wSimFig5].PerLayer["perfmodel.sim_rtt_us_rpcoib"] = math.Nextafter(92.8, 93)
	out.Reset()
	ok, err = checkFiles(&out, base, write("moved.json", moved))
	if err != nil || ok || !strings.Contains(out.String(), "moved") {
		t.Errorf("a simulated value moved by one ulp: ok=%v err=%v\n%s", ok, err, out.String())
	}
}
