package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// resultFile is one complete set of runs: out/result.json.
type resultFile struct {
	Seconds   float64                 `json:"seconds"`
	Runs      int                     `json:"runs"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

// workloadSet holds, per metric, one value per run (seeds 1..runs, in order);
// per-layer metrics come from the single traced run on seed 1.
type workloadSet struct {
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
}

// runAll runs every workload in a child process of this binary, so set-up
// time and peak RSS are each workload's own: runs untraced runs on seeds
// 1..runs, then one traced run on seed 1.
func runAll(cfg runConfig, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	file := resultFile{Seconds: cfg.seconds, Runs: runs, Workloads: map[string]*workloadSet{}}
	for _, w := range workloads {
		set := &workloadSet{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		file.Workloads[w.Name] = set
		child := func(seed int, trace bool) (result, error) {
			t := "0"
			if trace {
				t = "1"
			}
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", t, "--out", cfg.outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return result{}, fmt.Errorf("%s seed %d trace %s: %w", w.Name, seed, t, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return result{}, fmt.Errorf("%s: last line is not a result: %w", w.Name, err)
			}
			set.Attempted += res.Attempted
			set.Failed += res.Failed
			return res, nil
		}
		for seed := 1; seed <= runs; seed++ {
			res, err := child(seed, false)
			if err != nil {
				return err
			}
			for name, v := range res.Metrics {
				set.EndToEnd[name] = append(set.EndToEnd[name], v.Value)
			}
		}
		res, err := child(1, true)
		if err != nil {
			return err
		}
		for name, v := range res.Metrics {
			set.PerLayer[name] = v.Value
		}
		fmt.Printf("%s: attempted %d, failed %d\n", w.Name, set.Attempted, set.Failed)
		for _, m := range endToEnd {
			vs := set.EndToEnd[m.Name]
			fmt.Printf("  %-38s %14.6g %-8s spread %.2f%%\n", m.Name, median(vs), m.Unit, 100*spread(vs))
		}
		for _, m := range perLayer {
			if v := set.PerLayer[m.Name]; v != 0 {
				fmt.Printf("  %-38s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
	}
	path := filepath.Join(cfg.outDir, "result.json")
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// quartiles mirrors Python's statistics.quantiles(values, n=4), the rule the
// benchmark's acceptance is stated in.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the first and third quartile as a share of
// the median; 0 when there are too few values to have quartiles.
func spread(vs []float64) float64 {
	med := median(vs)
	if len(vs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / med
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// checkFiles prints one row per workload and end-to-end metric comparing set
// b against set a (the base), and one row per exact simulated value. It
// reports false when any row is worse than its bound allows or any exact
// value moved.
func checkFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-16s %-18s %13s %13s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "a (base)", "b", "b/a", "bound", "spread a", "spread b", "verdict")
	for _, wl := range workloads {
		sa, sb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if sa == nil || sb == nil {
			return false, fmt.Errorf("workload %s missing from a result file", wl.Name)
		}
		for _, m := range endToEnd {
			va, vb := sa.EndToEnd[m.Name], sb.EndToEnd[m.Name]
			ma, mb := median(va), median(vb)
			verdict := "ok"
			switch {
			case len(va) == 0 || len(vb) == 0 || ma == 0:
				verdict = "missing"
				ok = false
			case m.Better == "lower" && mb > ma*(1+m.Bound), m.Better == "higher" && mb < ma*(1-m.Bound):
				verdict = "worse"
				ok = false
			case m.Name != "setup_s" && (spread(va) > m.Bound || spread(vb) > m.Bound):
				// The sets' own run-to-run spread exceeds the bound, so
				// agreement between their medians proves nothing.
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-16s %-18s %13.6g %13.6g %9.4f %6.0f%% %7.2f%% %7.2f%%  %s\n",
				wl.Name, m.Name, ma, mb, mb/ma, 100*m.Bound, 100*spread(va), 100*spread(vb), verdict)
		}
		if sb.Failed > 0 || sa.Failed > 0 {
			fmt.Fprintf(w, "%-16s failed operations: a %d of %d, b %d of %d\n", wl.Name, sa.Failed, sa.Attempted, sb.Failed, sb.Attempted)
			ok = false
		}
		for _, m := range perLayer {
			if !strings.HasPrefix(m.Name, "perfmodel.") {
				continue
			}
			if va, vb := sa.PerLayer[m.Name], sb.PerLayer[m.Name]; va != vb {
				fmt.Fprintf(w, "%-16s %-34s %v -> %v  moved (exact simulated value)\n", wl.Name, m.Name, va, vb)
				ok = false
			}
		}
	}
	return ok, nil
}
