package bench

import (
	"flag"
	"fmt"
	"os"

	"rpcoib/internal/faultsim"
)

// Flags is the harness flag set the figure binaries share: where to write
// the metrics report and the distributed trace, and — for the binaries that
// take one — which fault plan to inject.
type Flags struct {
	metrics, faults, trace   string
	traceSample, traceTailMS int
}

// RegisterFlags declares -metrics, -trace, -trace-sample and -trace-tail-ms
// on fs, plus -faults when the binary takes a fault plan. Call Start after
// fs is parsed and Finish after the last experiment.
func RegisterFlags(fs *flag.FlagSet, faults bool) *Flags {
	f := &Flags{}
	fs.StringVar(&f.metrics, "metrics", "", "write a JSONL metrics event log to this path")
	if faults {
		fs.StringVar(&f.faults, "faults", "", "inject faults from this JSON plan (see internal/faultsim)")
	}
	fs.StringVar(&f.trace, "trace", "", "stream a JSONL distributed trace to this path (analyze with rpctrace)")
	fs.IntVar(&f.traceSample, "trace-sample", 0, "with -trace: keep 1 trace in N (0 or 1 keeps all)")
	fs.IntVar(&f.traceTailMS, "trace-tail-ms", 0, "with -trace: keep only traces whose root span took >= this many ms")
	return f
}

// Start arms what the parsed flags ask for, for every cluster built
// afterwards. An unusable trace path or fault plan is a usage error: exit 2.
func (f *Flags) Start() {
	if f.metrics != "" {
		EnableMetrics()
	}
	if err := EnableTracingFromFlags(f.trace, f.traceSample, f.traceTailMS); err != nil {
		exit(2, "trace", err)
	}
	if f.faults != "" {
		plan, err := faultsim.LoadPlan(f.faults)
		if err == nil {
			err = SetFaultPlan(plan)
		}
		if err != nil {
			exit(2, "faults", err)
		}
	}
}

// Finish writes the metrics report and flushes the trace. Losing either is a
// failed run: exit 1.
func (f *Flags) Finish() {
	if err := WriteMetricsReport(f.metrics); err != nil {
		exit(1, "write metrics", err)
	}
	if err := CloseTrace(); err != nil {
		exit(1, "close trace", err)
	}
}

func exit(code int, what string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
	os.Exit(code)
}
