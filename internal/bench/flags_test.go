package bench

import (
	"flag"
	"testing"
)

// TestRegisterFlags pins the harness flag names and help text the six figure
// binaries had when each declared them itself, and that -faults exists only
// where it is asked for.
func TestRegisterFlags(t *testing.T) {
	want := map[string]string{
		"metrics":       "write a JSONL metrics event log to this path",
		"faults":        "inject faults from this JSON plan (see internal/faultsim)",
		"trace":         "stream a JSONL distributed trace to this path (analyze with rpctrace)",
		"trace-sample":  "with -trace: keep 1 trace in N (0 or 1 keeps all)",
		"trace-tail-ms": "with -trace: keep only traces whose root span took >= this many ms",
	}
	for _, faults := range []bool{true, false} {
		fs := flag.NewFlagSet("bench", flag.ContinueOnError)
		h := RegisterFlags(fs, faults)
		n := 0
		fs.VisitAll(func(fl *flag.Flag) {
			n++
			if want[fl.Name] != fl.Usage {
				t.Errorf("faults=%v: flag -%s usage %q, want %q", faults, fl.Name, fl.Usage, want[fl.Name])
			}
		})
		if wantN := len(want) - 1; !faults && n != wantN || faults && n != len(want) {
			t.Errorf("faults=%v: %d flags registered", faults, n)
		}
		if err := fs.Parse([]string{"-metrics", "m.jsonl", "-trace-sample", "64"}); err != nil {
			t.Fatal(err)
		}
		if h.metricsPath != "m.jsonl" || h.traceSample != 64 || h.tracePath != "" {
			t.Errorf("parsed %+v", h)
		}
	}
}
