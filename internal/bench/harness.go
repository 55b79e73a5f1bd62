package bench

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/faultsim"
	"rpcoib/internal/metrics"
	"rpcoib/internal/tracing"
)

// Harness is what the runners reach their instruments through: the harness
// flags, the metrics registry and its JSONL event log, the distributed tracer
// and the file it streams to, and the fault plan applied to every cluster a
// runner builds. The zero Harness runs with no metrics, no trace and no
// faults. Two harnesses share nothing, so their runners may run side by side.
type Harness struct {
	metricsPath, faultsPath, tracePath string
	traceSample, traceTailMS           int

	reg    *metrics.Registry
	log    *metrics.Log
	tracer *tracing.Tracer
	sink   *tracing.Sink
	buf    *bufio.Writer
	file   *os.File
	faults *faultsim.Plan
}

// traceSeed fixes the span-ID stream for benchmark traces: a constant, so two
// identical bench invocations produce byte-identical trace files.
const traceSeed = 1

// RegisterFlags declares -metrics, -trace, -trace-sample and -trace-tail-ms
// on fs, plus -faults when the binary takes a fault plan, and returns the
// harness they configure. Call Start after fs is parsed and Finish after the
// last experiment.
func RegisterFlags(fs *flag.FlagSet, faults bool) *Harness {
	h := &Harness{}
	fs.StringVar(&h.metricsPath, "metrics", "", "write a JSONL metrics event log to this path")
	if faults {
		fs.StringVar(&h.faultsPath, "faults", "", "inject faults from this JSON plan (see internal/faultsim)")
	}
	fs.StringVar(&h.tracePath, "trace", "", "stream a JSONL distributed trace to this path (analyze with rpctrace)")
	fs.IntVar(&h.traceSample, "trace-sample", 0, "with -trace: keep 1 trace in N (0 or 1 keeps all)")
	fs.IntVar(&h.traceTailMS, "trace-tail-ms", 0, "with -trace: keep only traces whose root span took >= this many ms")
	return h
}

// Start arms what the parsed flags ask for, for every cluster built
// afterwards. An unusable trace path or fault plan is a usage error: exit 2.
func (h *Harness) Start() {
	if h.metricsPath != "" {
		h.Metrics()
	}
	if h.tracePath != "" {
		if err := h.startTrace(); err != nil {
			exit(2, "trace", err)
		}
	}
	if h.faultsPath != "" {
		plan, err := faultsim.LoadPlan(h.faultsPath)
		if err != nil {
			exit(2, "faults", err)
		}
		h.faults = plan
	}
}

// startTrace opens the -trace file and arms a tracer streaming JSONL spans
// into it: keep all, 1 in -trace-sample, or (winning over both) the traces
// whose root took at least -trace-tail-ms.
func (h *Harness) startTrace() error {
	f, err := os.Create(h.tracePath)
	if err != nil {
		return err
	}
	s := tracing.Sampler{}
	switch {
	case h.traceTailMS > 0:
		s = tracing.Sampler{Mode: tracing.SampleTail, TailOver: time.Duration(h.traceTailMS) * time.Millisecond}
	case h.traceSample > 1:
		s = tracing.Sampler{Mode: tracing.SampleEveryN, N: h.traceSample}
	}
	h.file = f
	h.buf = bufio.NewWriterSize(f, 1<<16)
	h.sink = tracing.NewSink(h.buf, tracing.SinkOptions{})
	h.tracer = tracing.New(traceSeed, h.sink, s)
	h.tracer.Instrument(h.reg)
	return nil
}

// Finish writes the metrics report and flushes the trace. Losing either is a
// failed run: exit 1.
func (h *Harness) Finish() {
	if h.reg != nil && h.metricsPath != "" {
		if err := h.log.WriteFile(h.metricsPath); err != nil {
			exit(1, "write metrics", err)
		}
	}
	if h.tracer == nil {
		return
	}
	h.tracer.Flush()
	h.sink.Close()
	err := h.buf.Flush()
	if cerr := h.file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		exit(1, "close trace", err)
	}
}

func exit(code int, what string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
	os.Exit(code)
}

// Metrics turns on engine-wide metrics for every cluster the harness builds
// afterwards (RPC servers/clients, buffer pools, the verbs fabric, HDFS
// pipelines) and returns the registry. Runners append one span and one
// cumulative registry snapshot per experiment run to the JSONL event log;
// consecutive snapshots diff cleanly because recording is deterministic under
// simulation.
func (h *Harness) Metrics() *metrics.Registry {
	if h.reg == nil {
		h.reg, h.log = metrics.New(), &metrics.Log{}
	}
	return h.reg
}

// withRegistry returns h when its metrics are on, else a copy of h with a
// registry and log of its own, for runners whose result is read from the
// registry and so must not depend on a flag.
func (h *Harness) withRegistry() *Harness {
	if h.reg != nil {
		return h
	}
	c := *h
	c.reg, c.log = metrics.New(), &metrics.Log{}
	return &c
}

// observed runs one simulation and returns what it recorded, for the runners
// whose result is a view over the registry (Table I, Figures 1 and 3): the
// registry's change across the run (see withRegistry). run returns the
// simulation's virtual end time.
func (h *Harness) observed(run func(h *Harness) time.Duration) metrics.Snapshot {
	h = h.withRegistry()
	before := h.reg.Snapshot(0)
	end := run(h)
	return metrics.Diff(h.reg.Snapshot(end), before)
}

// newCluster wraps cluster.New, instrumenting the verbs network with the
// harness's registry and tracer and applying its fault plan, if any.
func (h *Harness) newCluster(cc cluster.Config) *cluster.Cluster {
	cl := cluster.New(cc)
	cl.IBNet().Instrument(h.reg)
	cl.IBNet().TraceEvents(h.tracer)
	if h.faults != nil {
		inj, err := faultsim.Apply(cl, *h.faults)
		if err != nil {
			panic(fmt.Sprintf("bench: applying fault plan: %v", err))
		}
		inj.Instrument(h.reg)
		inj.TraceEvents(h.tracer)
	}
	return cl
}

// record logs one runner execution: a span covering virtual time [0, end]
// and a registry snapshot stamped with the run's virtual end time.
func (h *Harness) record(name string, end time.Duration) {
	if h.reg == nil {
		return
	}
	h.log.Span(name, 0, end)
	h.log.Snapshot(name, h.reg, end)
}
