package bench

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"rpcoib/internal/faultsim"
	"rpcoib/internal/metrics"
)

// TestFig6aDeterministicReplay: the Fig 6(a) sort pipeline is a full-stack
// workload (MapReduce over HDFS over the RPC engine over the simulated
// fabrics); running it twice in one process must reproduce the engine-wide
// metrics registry byte-for-byte. Any hidden nondeterminism — map iteration
// leaking into scheduling, wall-clock time, unseeded randomness — shows up
// here as a diff.
func TestFig6aDeterministicReplay(t *testing.T) {
	run := func() metrics.Snapshot {
		h := &Harness{}
		reg := h.Metrics()
		points := h.Fig6aSort(nil, 2, []int{1})
		if len(points) != 2 {
			t.Fatalf("points=%d", len(points))
		}
		// Stamp with the run's own virtual outcome so timing divergence is
		// part of the comparison, not masked by a fixed timestamp.
		return reg.Snapshot(points[0].Sort + points[1].Sort)
	}
	first := run()
	second := run()
	if len(first.Counters) == 0 {
		t.Fatal("metrics registry empty; the pipeline was not instrumented")
	}
	if same, diff := faultsim.SameSnapshot(first, second); !same {
		t.Fatalf("same-seed Fig6a replays diverged: %s", diff)
	}
}

// TestHarnessesRunConcurrently: two harnesses share nothing, so runners on
// each can run side by side and still produce what a serial run does — the
// rows, the -metrics event log and the registry.
func TestHarnessesRunConcurrently(t *testing.T) {
	type outcome struct {
		latency []LatencyRow
		sort    []SortPoint
		log     []byte
		snap    metrics.Snapshot
	}
	run := func() (o outcome) {
		h := &Harness{}
		reg := h.Metrics()
		o.latency = h.Fig5aLatency(nil, []int{1, 1024}, 20)
		o.sort = h.Fig6aSort(nil, 2, []int{1})
		var buf bytes.Buffer
		if err := h.log.WriteJSONL(&buf); err != nil {
			t.Error(err)
		}
		o.log = buf.Bytes()
		o.snap = reg.Snapshot(time.Second)
		return o
	}
	serial := run()
	var side [2]outcome
	var wg sync.WaitGroup
	for i := range side {
		wg.Add(1)
		go func() {
			defer wg.Done()
			side[i] = run()
		}()
	}
	wg.Wait()
	for i, got := range side {
		if !reflect.DeepEqual(got.latency, serial.latency) || !reflect.DeepEqual(got.sort, serial.sort) {
			t.Errorf("harness %d rows differ from a serial run:\n got %+v %+v\nwant %+v %+v",
				i, got.latency, got.sort, serial.latency, serial.sort)
		}
		if !bytes.Equal(got.log, serial.log) {
			t.Errorf("harness %d -metrics log differs from a serial run", i)
		}
		if same, diff := faultsim.SameSnapshot(got.snap, serial.snap); !same {
			t.Errorf("harness %d registry differs from a serial run: %s", i, diff)
		}
	}
}

// TestFaultedBenchClusterAppliesPlan: a harness's fault plan must reach the
// clusters its runners build and show up in its registry via the injector's
// instruments.
func TestFaultedBenchClusterAppliesPlan(t *testing.T) {
	// Delays and duplicates only: the micro-benchmark drivers treat call
	// errors as fatal, so a benchmark-compatible weather profile perturbs
	// timing without killing connections.
	h := &Harness{faults: &faultsim.Plan{
		Seed:    3,
		Profile: faultsim.Profile{DupRate: 0.2, DelayRate: 0.3, DelayMaxMS: 1},
	}}
	reg := h.Metrics()
	res := h.Fig5aLatency(nil, []int{128}, 30)
	if len(res) == 0 {
		t.Fatal("benchmark produced no results")
	}
	snap := reg.Snapshot(time.Second)
	if snap.Counters["fault_delays_total"] == 0 && snap.Counters["fault_dups_total"] == 0 {
		t.Error("armed fault plan never touched a message in the bench cluster")
	}
}
