package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// measurement is what one window of one fixture yields.
type measurement struct {
	attempted    int64
	failed       int64
	firstFailure string

	callsPerS float64 // median segment (real) or median slice (sim)
	cpuUS     float64 // user+sys CPU per call
	allocs    float64 // whole-process mallocs per call
	bytes     float64 // whole-process allocated bytes per call

	layers map[string]float64 // per-layer values this window is the source for
	spans  []spanRecord       // traced windows only
}

// fixture is one workload, set up: warm finishes the set-up (and returns a
// fingerprint of every simulated number so far, empty in real mode), measure
// runs one window, close tears down and cross-checks.
type fixture interface {
	warm() (string, error)
	measure(dur time.Duration) measurement
	close() error
}

// runConfig is one invocation: a workload, a seed, a window.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string

	scale scale
}

// scale holds the sizes the command line does not expose; tests shrink them.
type scale struct {
	setupReps  int           // fresh set-ups a run's window is split over; every end-to-end metric is their median
	ladderDur  time.Duration // minimum length of each isolated loop; 0 skips the ladder
	fanin      faninScale
	fig5Slice  time.Duration // virtual time per timed slice of sim_fig5
	faninSlice time.Duration // virtual time per timed slice of sim_shard_fanin
}

var fullScale = scale{
	setupReps: 5,
	ladderDur: 500 * time.Millisecond,
	fanin:     faninScale{nodes: 1000, clients: 100_000},
	// Slices of about 50 ms of host time on the reference machine: long
	// enough that timer and scheduler noise is small against one slice, short
	// enough that a window holds dozens.
	fig5Slice:  16 * time.Millisecond,
	faninSlice: 2 * time.Millisecond,
}

func defaultConfig() runConfig {
	return runConfig{seed: 1, seconds: runSeconds, scale: fullScale}
}

// result is one run, in the shape the driver reads from the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	notes []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newFixture(sc scale, workload string, seed int64, traced bool) (fixture, error) {
	switch workload {
	case wRealSmall, wRealObserved, wRealLargePut, wRealLargeGet:
		return newRealFixture(workload, seed, traced)
	case wSimFig5:
		return newFig5Fixture(sc.fig5Slice, seed, traced), nil
	case wSimFanin:
		return newFaninFixture(sc.fanin, sc.faninSlice, seed, traced), nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// repeat sets a workload up reps times and measures one window on each
// set-up. Run-to-run variation on a small machine is mostly per set-up (where
// the connection's threads and the heap happen to land), not within one, so a
// run reports the median over several short windows on fresh set-ups rather
// than one long window on one. A sim workload's set-ups must all reproduce the
// same simulated numbers (replay identity).
//
// A window during which the hypervisor gave more than stealLimit of the
// machine's CPU time to other guests did not measure this program: it is
// thrown away and repeated on a fresh set-up, at most maxDisturbed times a
// run, so that a noisy neighbour costs time instead of a wrong number.
func repeat(reps int, window time.Duration, build func(rep int) (fixture, error)) (setups []float64, ms []measurement, disturbed int, err error) {
	var first string
	for rep := 0; rep < reps; rep++ {
		t0, stolen0 := time.Now(), stolen()
		fx, err := build(rep)
		if err != nil {
			return nil, nil, 0, err
		}
		fp, err := fx.warm()
		if err != nil {
			return nil, nil, 0, err
		}
		setup := time.Since(t0).Seconds()
		if rep == 0 {
			first = fp
		} else if fp != first {
			return nil, nil, 0, fmt.Errorf("replay identity broken: set-up %d simulated %q, set-up 1 simulated %q", rep+1, fp, first)
		}
		m := fx.measure(window)
		if err := fx.close(); err != nil {
			m.failed++
			m.firstFailure = err.Error()
		}
		machine := time.Since(t0) * time.Duration(runtime.NumCPU())
		if m.failed == 0 && disturbed < maxDisturbed && float64(stolen()-stolen0) > stealLimit*float64(machine) {
			disturbed++
			rep--
			continue
		}
		setups = append(setups, setup)
		ms = append(ms, m)
	}
	return setups, ms, disturbed, nil
}

const (
	stealLimit   = 0.02
	maxDisturbed = 3
)

// over returns the median over windows of one of their numbers.
func over(ms []measurement, pick func(measurement) float64) float64 {
	vs := make([]float64, len(ms))
	for i, m := range ms {
		vs[i] = pick(m)
	}
	return median(vs)
}

// runWorkload is one invocation of the benchmark on one workload.
//
// Untraced, it splits the window over setupReps fresh set-ups and reports the
// end-to-end metrics, each the median over them. Traced, it measures half a
// window untraced (latency, and the rate tracing is compared against), half a
// window through the decorators, then the isolated loops, and reports the
// per-layer metrics.
func runWorkload(cfg runConfig) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	window := time.Duration(cfg.seconds * float64(time.Second))
	measure := func(workload string, traced bool, reps int, window time.Duration) ([]float64, []measurement, error) {
		setups, ms, disturbed, err := repeat(reps, window, func(int) (fixture, error) {
			return newFixture(cfg.scale, workload, cfg.seed, traced)
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", workload, err)
		}
		if disturbed > 0 {
			res.notes = append(res.notes, fmt.Sprintf("repeated %d windows of %s: other guests held over %.0f%% of the machine", disturbed, workload, 100*stealLimit))
		}
		for _, m := range ms {
			res.add(m)
		}
		return setups, ms, nil
	}

	values := map[string]float64{}
	if !cfg.trace {
		reps := cfg.scale.setupReps
		setups, ms, err := measure(cfg.workload, false, reps, window/time.Duration(reps))
		if err != nil {
			return res, err
		}
		values["setup_s"] = median(setups)
		values["calls_per_s"] = over(ms, func(m measurement) float64 { return m.callsPerS })
		values["cpu_us_per_call"] = over(ms, func(m measurement) float64 { return m.cpuUS })
		values["allocs_per_call"] = over(ms, func(m measurement) float64 { return m.allocs })
		values["bytes_per_call"] = over(ms, func(m measurement) float64 { return m.bytes })
		values["peak_rss_mb"] = peakRSSMB()
	} else {
		_, plain, err := measure(cfg.workload, false, 1, window/2)
		if err != nil {
			return res, err
		}
		_, traced, err := measure(cfg.workload, true, 1, window/2)
		if err != nil {
			return res, err
		}
		m, tm := plain[0], traced[0]
		for _, layers := range []map[string]float64{m.layers, tm.layers} {
			for k, v := range layers {
				values[k] = v
			}
		}
		if m.callsPerS > 0 {
			values["bench.trace_overhead_share"] = 1 - tm.callsPerS/m.callsPerS
		}
		if cfg.workload == wRealObserved {
			// The same traffic with observation off, in this process: the
			// difference is the observation pipeline.
			_, off, err := measure(wRealSmall, false, 1, window/2)
			if err != nil {
				return res, err
			}
			if off[0].callsPerS > 0 {
				values["metrics.overhead_share"] = 1 - m.callsPerS/off[0].callsPerS
				values["metrics.allocs_added_per_call"] = m.allocs - off[0].allocs
			}
		}
		if cfg.scale.ladderDur > 0 {
			runLadder(cfg.scale.ladderDur, cfg.seed, values)
		}
		if err := writeTrace(cfg.outDir, cfg.workload, tm.spans); err != nil {
			return res, err
		}
	}

	for _, spec := range specFor(cfg.trace) {
		v := values[spec.Name] // a layer the workload does not execute reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is not finite", spec.Name)
		}
		res.Metrics[spec.Name] = metricValue{v, spec.Unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

func (r *result) add(m measurement) {
	r.Attempted += m.attempted
	r.Failed += m.failed
	if m.firstFailure != "" {
		r.notes = append(r.notes, m.firstFailure)
	}
}

// ---- the real-mode fixture ----

type realFixture struct {
	rig *realRig
}

func newRealFixture(workload string, seed int64, traced bool) (*realFixture, error) {
	o := realOpts{workload: workload, seed: seed, observed: workload == wRealObserved}
	if traced {
		o.rec = newRecorder()
	}
	rig, err := newRealRig(o)
	if err != nil {
		return nil, err
	}
	return &realFixture{rig}, nil
}

func (f *realFixture) warm() (string, error) { return "", f.rig.warm() }
func (f *realFixture) close() error          { return f.rig.close() }

func (f *realFixture) measure(dur time.Duration) measurement {
	w := f.rig.run(0, dur)
	m := measurement{
		attempted: w.calls, failed: w.failed,
		callsPerS: w.callsPerS, cpuUS: w.cpuUS, allocs: w.allocs, bytes: w.bytes,
		layers: map[string]float64{},
	}
	if len(f.rig.failures.first) > 0 {
		m.firstFailure = f.rig.failures.first[0]
	}
	if rec := f.rig.seams.rec; rec != nil {
		w.layers.layerMetrics(w.calls, m.layers)
		f.rig.boundaryLayers(w, m.layers)
		m.spans = rec.records()
		return m
	}
	// Untraced: this window is the source for caller-observed latency.
	all := &hist{}
	for _, h := range w.lat {
		all.merge(h)
	}
	m.layers["core.call_p50_us"] = all.quantile(0.50) / 1e3
	m.layers["core.call_p99_us"] = all.quantile(0.99) / 1e3
	m.layers["core.latency_samples"] = float64(all.n)
	if h := w.lat[echoMethod(1)]; h != nil {
		m.layers["core.p50_us_1b"] = h.quantile(0.50) / 1e3
	}
	if h := w.lat[echoMethod(4096)]; h != nil {
		m.layers["core.p50_us_4k"] = h.quantile(0.50) / 1e3
	}
	return m
}
