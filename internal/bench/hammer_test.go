package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// hammerRun captures every replay-compared output of one hammer execution.
type hammerRun struct {
	res         HammerResult
	metricsJSON string // the -metrics event log
	traceJSON   string // the -trace span file
}

// runHammer runs cfg through a harness writing -metrics and -trace files,
// keeping one trace in sample, and returns the result and both files.
func runHammer(t *testing.T, cfg HammerConfig, sample int) hammerRun {
	t.Helper()
	dir := t.TempDir()
	h := &Harness{
		metricsPath: filepath.Join(dir, "metrics.jsonl"),
		tracePath:   filepath.Join(dir, "trace.jsonl"),
		traceSample: sample,
	}
	h.Start()
	res := h.RunHammer(cfg)
	h.Finish()
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return hammerRun{res: res, metricsJSON: read(h.metricsPath), traceJSON: read(h.tracePath)}
}

// hammerCfg is the plain scenario: 200 closed-loop clients on 40 nodes and
// no connection caps.
func hammerCfg() HammerConfig {
	return HammerConfig{
		Nodes: 40, Clients: 200, Seed: 7,
		Duration: 30 * time.Millisecond,
		Handlers: 16, ThinkTime: 2 * time.Millisecond,
	}
}

// TestHammerTraceHoldsCalls: a hammer run with -trace writes its calls as
// hammer.call spans, most of them finished within the run.
func TestHammerTraceHoldsCalls(t *testing.T) {
	run := runHammer(t, hammerCfg(), 1)
	finished := 0
	for _, line := range strings.Split(strings.TrimSpace(run.traceJSON), "\n") {
		var sp struct {
			Name  string            `json:"name"`
			Attrs map[string]string `json:"attrs"`
		}
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if sp.Name != "hammer.call" {
			t.Fatalf("span %q in a hammer trace", sp.Name)
		}
		if sp.Attrs["unfinished"] == "" {
			finished++
		}
	}
	if int64(finished) != run.res.Calls {
		t.Fatalf("%d finished hammer.call spans, want one per completed call (%d)", finished, run.res.Calls)
	}
}
