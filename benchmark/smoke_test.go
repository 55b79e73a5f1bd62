package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeScale runs every workload in a fraction of a second: two set-ups, a
// small fan-in, slices of a few hundred virtual microseconds, no ladder.
var smokeScale = scale{
	setupReps:  2,
	fanin:      faninScale{nodes: 40, clients: 2000},
	fig5Slice:  300 * time.Microsecond,
	faninSlice: 100 * time.Microsecond,
}

func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 1, seconds: 0.2, trace: trace, outDir: t.TempDir(), scale: smokeScale}
}

// checkResult asserts a run emitted exactly the metrics BENCHMARK.json names
// for its mode, each finite and with its unit, and that nothing failed.
func checkResult(t *testing.T, res result, trace bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.notes)
	}
	specs := specFor(trace)
	if len(res.Metrics) != len(specs) {
		t.Errorf("emitted %d metrics, the spec names %d", len(res.Metrics), len(specs))
	}
	for _, spec := range specs {
		v, ok := res.Metrics[spec.Name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", spec.Name)
		case v.Unit != spec.Unit || v.Unit == "":
			t.Errorf("%s: unit %q, want %q", spec.Name, v.Unit, spec.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %v is not finite", spec.Name, v.Value)
		case !trace && v.Value <= 0:
			t.Errorf("%s: end-to-end metrics are never zero, got %v", spec.Name, v.Value)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(smokeConfig(t, w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, false)

			cfg := smokeConfig(t, w.Name, true)
			if w.Name == wRealSmall {
				cfg.scale.ladderDur = time.Millisecond // the ladder is the same in every traced run
			}
			res, err = runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, true)
			if _, ok := res.Metrics["bench.trace_overhead_share"]; !ok {
				t.Error("bench.trace_overhead_share not reported")
			}
			spans := readTrace(t, filepath.Join(cfg.outDir, "trace-"+w.Name+".jsonl"))
			if len(spans) == 0 {
				t.Fatal("traced run wrote no spans")
			}
			if strings.HasPrefix(w.Name, "real_") {
				checkCallSpans(t, spans)
				for _, name := range []string{"core.call_self_us", "core.call_p50_us", "transport.sends_per_call", "bufpool.first_fit_share", "exec.queues_per_call"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s = %v on a real workload", name, res.Metrics[name].Value)
					}
				}
			}
			if w.Name == wRealSmall {
				checkLadder(t, res)
			}
		})
	}
}

// checkLadder asserts the isolated loops filled every rung the spec lists,
// from the first ladder metric to the last.
func checkLadder(t *testing.T, res result) {
	t.Helper()
	rungs := 0
	for _, spec := range perLayer {
		if spec.Name == "wire.alg1_encode_ns_small" || rungs > 0 {
			rungs++
			// Only an allocation count may legitimately be zero.
			if v := res.Metrics[spec.Name].Value; v < 0 || (v == 0 && !strings.HasSuffix(spec.Name, "_allocs")) {
				t.Errorf("ladder rung %s = %v", spec.Name, v)
			}
		}
		if spec.Name == "tracing.span_allocs" {
			break
		}
	}
	if rungs < 30 {
		t.Errorf("only %d ladder rungs found in the spec", rungs)
	}
}

func readTrace(t *testing.T, path string) []spanRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []spanRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanRecord
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: line %d does not parse: %v", path, len(spans)+1, err)
		}
		if s.Name == "" || s.EndNS < s.StartNS {
			t.Fatalf("%s: bad span %+v", path, s)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

// checkCallSpans asserts that the spans of one call share its sequence number
// on both sides of the connection and hang off the call's root span.
func checkCallSpans(t *testing.T, spans []spanRecord) {
	t.Helper()
	type key struct{ name, side string }
	bySeq := map[uint64]map[key]spanRecord{}
	for _, s := range spans {
		if s.Seq == 0 {
			continue
		}
		if bySeq[s.Seq] == nil {
			bySeq[s.Seq] = map[key]spanRecord{}
		}
		bySeq[s.Seq][key{s.Name, s.Side}] = s
	}
	want := []key{
		{"call", "client"}, {"wire.write", "client"}, {"transport.send", "client"},
		{"wire.read", "server"}, {"handler", "server"}, {"wire.write", "server"}, {"wire.read", "client"},
	}
	complete := 0
	for _, got := range bySeq {
		root, ok := got[key{"call", "client"}]
		if !ok {
			continue // the log was cut, or the call straddles the window's edge
		}
		full := true
		for _, k := range want {
			s, ok := got[k]
			if !ok {
				full = false
				continue
			}
			if k.name != "call" && s.Parent != root.ID {
				t.Fatalf("seq %d: %s/%s has parent %d, the call span is %d", root.Seq, k.name, k.side, s.Parent, root.ID)
			}
		}
		if full {
			complete++
		}
	}
	if complete == 0 {
		t.Fatalf("no call has all of its spans under one sequence number (%d calls seen)", len(bySeq))
	}
}

func TestReplyCheckerRejectsCorruption(t *testing.T) {
	body := []byte("sixteen byte body")
	sent := &msg{seq: 7, want: uint32(len(body)), sum: checksum(body), body: body}
	good := func() *msg {
		return &msg{seq: 7, sum: checksum(body), body: append([]byte(nil), body...)}
	}
	if err := checkReply(sent, good(), true); err != nil {
		t.Fatalf("a faithful echo is rejected: %v", err)
	}
	corrupt := map[string]func(*msg){
		"flipped byte":    func(m *msg) { m.body[3] ^= 0x40 },
		"wrong sequence":  func(m *msg) { m.seq++ },
		"short body":      func(m *msg) { m.body = m.body[:8]; m.sum = checksum(m.body) },
		"different bytes": func(m *msg) { m.body[0]++; m.sum = checksum(m.body) },
	}
	for name, damage := range corrupt {
		m := good()
		damage(m)
		if err := checkReply(sent, m, true); err == nil {
			t.Errorf("%s: corrupted reply accepted", name)
		}
	}
}

// The replay check compares every set-up's simulated numbers; set-ups from
// different seeds must trip it, and set-ups from one seed must not.
func TestReplayCheckTripsOnDifferentSeed(t *testing.T) {
	for _, w := range []string{wSimFig5, wSimFanin} {
		same := func(int) (fixture, error) { return newFixture(smokeScale, w, 1, false) }
		if _, _, _, err := repeat(2, time.Millisecond, same); err != nil {
			t.Fatalf("%s: same seed: %v", w, err)
		}
		drift := func(rep int) (fixture, error) { return newFixture(smokeScale, w, 1+int64(rep), false) }
		if _, _, _, err := repeat(2, time.Millisecond, drift); err == nil || !strings.Contains(err.Error(), "replay identity broken") {
			t.Errorf("%s: set-ups from seeds 1 and 2 passed the replay check (err=%v)", w, err)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := 1; v <= 100_000; v++ {
		h.add(time.Duration(v))
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100_000
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
}
