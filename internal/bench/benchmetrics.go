package bench

import (
	"fmt"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/faultsim"
	"rpcoib/internal/metrics"
)

// The bench runners construct clusters internally, so metrics collection is
// wired through one package-level registry rather than threaded through
// every runner signature. When disabled (the default) benchReg is nil and
// every instrument it would have handed out is an inert no-op.
var (
	benchReg *metrics.Registry
	benchLog = &metrics.Log{}
)

// EnableMetrics turns on engine-wide metrics for all subsequently
// constructed benchmark clusters (RPC servers/clients, buffer pools, the
// verbs fabric, HDFS pipelines) and returns the shared registry. Runners
// append one span and one cumulative registry snapshot per experiment run to
// the JSONL event log; consecutive snapshots diff cleanly because recording
// is deterministic under simulation.
func EnableMetrics() *metrics.Registry {
	if benchReg == nil {
		benchReg = metrics.New()
	}
	return benchReg
}

// observed runs one simulation and returns what it recorded, for the runners
// whose result is a view over the registry (Table I, Figures 1 and 3). With
// -metrics armed that is the shared registry's change across the run; without,
// a private registry and log stand in for the run's duration, so the profile
// never depends on a flag. run returns the simulation's virtual end time.
func observed(run func() time.Duration) metrics.Snapshot {
	if benchReg == nil {
		log := benchLog
		benchReg, benchLog = metrics.New(), &metrics.Log{}
		defer func() { benchReg, benchLog = nil, log }()
	}
	before := benchReg.Snapshot(0)
	end := run()
	return metrics.Diff(benchReg.Snapshot(end), before)
}

// WriteMetricsReport writes the accumulated JSONL event log to path. It is a
// no-op (and returns nil) when metrics were never enabled or path is empty.
func WriteMetricsReport(path string) error {
	if benchReg == nil || path == "" {
		return nil
	}
	return benchLog.WriteFile(path)
}

// benchFaults, when set, is applied to every subsequently constructed
// benchmark cluster (the -faults CLI flag).
var benchFaults *faultsim.Plan

// SetFaultPlan arms (or, with nil, disarms) a fault plan for all benchmark
// clusters built afterwards. The plan is validated here so CLI flag parsing
// reports schema errors before any experiment runs.
func SetFaultPlan(p *faultsim.Plan) error {
	if p != nil {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	benchFaults = p
	return nil
}

// newCluster wraps cluster.New, instrumenting the verbs network when metrics
// are enabled and applying the armed fault plan, if any.
func newCluster(cc cluster.Config) *cluster.Cluster {
	cl := cluster.New(cc)
	cl.IBNet().Instrument(benchReg)
	cl.IBNet().TraceEvents(benchTrace)
	if benchFaults != nil {
		inj, err := faultsim.Apply(cl, *benchFaults)
		if err != nil {
			panic(fmt.Sprintf("bench: applying fault plan: %v", err))
		}
		inj.Instrument(benchReg)
		inj.TraceEvents(benchTrace)
	}
	return cl
}

// recordRun logs one runner execution: a span covering virtual time [0, end]
// and a registry snapshot stamped with the run's virtual end time.
func recordRun(name string, end time.Duration) {
	if benchReg == nil {
		return
	}
	benchLog.Span(name, 0, end)
	benchLog.Snapshot(name, benchReg, end)
}
