package faultsim_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"rpcoib/internal/bench"
	"rpcoib/internal/metrics"
)

// UpdateMetricGoldenEnv, when set, regenerates the metric-name golden file
// instead of checking against it.
const UpdateMetricGoldenEnv = "RPCOIB_UPDATE_METRIC_GOLDEN"

// TestMetricNamesGolden guards the metric namespace across both acceptance
// scenarios: the failover outage touches every instrumented RPC subsystem
// (client, server, buffer pools, verbs devices, HDFS pipeline, fault
// injector, breaker/failover), a small hammer run through a zero Harness
// covers the rpc_hammer_* families (with ScaleOut on, the S23 rpc_ib_srq_*,
// rpc_ib_qp_mux_*, and rpc_conn_cache_* families too), and the multi-rail
// outage covers the rail-selector families (rpc_rail_* including the
// per-rail labeled call counter, and the injector's fault_rail_events /
// fault_degrade_events). Their union enumerates every registered series; a
// new metric that shows up without a deliberate golden update — or one that
// silently vanishes — fails the test. Regenerate with
// RPCOIB_UPDATE_METRIC_GOLDEN=1.
func TestMetricNamesGolden(t *testing.T) {
	// Pinned seed: the golden list must not depend on RPCOIB_CHAOS_SEED.
	snap, _, err := failoverOutage(t, 1)
	if err != nil {
		t.Fatalf("scenario write failed: %v", err)
	}
	railSnap, _, err := railOutageScenario(t, 1, 2)
	if err != nil {
		t.Fatalf("rail scenario write failed: %v", err)
	}
	hammer := new(bench.Harness).RunHammer(bench.HammerConfig{
		Nodes: 8, Clients: 16, Seed: 1,
		Duration: 5 * time.Millisecond,
		Handlers: 4, ThinkTime: time.Millisecond,
		ScaleOut: true, QPMuxCap: 2, ConnCacheCap: 8, SRQDepth: 8,
	})

	names := map[string]bool{}
	add := func(n string) {
		// Strip labels: the guard tracks metric families, not label values.
		if i := strings.IndexByte(n, '{'); i >= 0 {
			n = n[:i]
		}
		names[n] = true
	}
	for _, s := range []metrics.Snapshot{snap, railSnap, hammer.Final} {
		for n := range s.Counters {
			add(n)
		}
		for n := range s.Gauges {
			add(n)
		}
		for n := range s.Histograms {
			add(n)
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	got := strings.Join(sorted, "\n") + "\n"

	golden := filepath.Join("testdata", "metric_names.golden")
	if os.Getenv(UpdateMetricGoldenEnv) != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d metric names to %s", len(sorted), golden)
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with %s=1 to regenerate): %v", UpdateMetricGoldenEnv, err)
	}
	want := strings.Split(strings.TrimRight(string(wantBytes), "\n"), "\n")
	wantSet := map[string]bool{}
	for _, n := range want {
		wantSet[n] = true
	}
	for _, n := range sorted {
		if !wantSet[n] {
			t.Errorf("new metric %q not in golden: update %s deliberately (%s=1)", n, golden, UpdateMetricGoldenEnv)
		}
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("metric %q in golden but no longer registered", n)
		}
	}
}
