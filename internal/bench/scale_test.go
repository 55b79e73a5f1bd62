package bench

import (
	"os"
	"strings"
	"testing"
	"time"
)

// scaleCfg is the small S23 scenario: far more clients than the NameNode's
// session cache holds and far more offered load than its SRQ can post, so
// both LRU eviction and busy-shedding fire constantly.
func scaleCfg() HammerConfig {
	return HammerConfig{
		Nodes: 16, Clients: 300, Seed: 11,
		Duration: 24 * time.Millisecond,
		Handlers: 4, ThinkTime: 2 * time.Millisecond, ServiceTime: 500 * time.Microsecond,
		ScaleOut: true,
		QPMuxCap: 4, ConnCacheCap: 48,
		SRQDepth: 8, SRQCredit: 2, SRQBufBytes: 256,
	}
}

// scaleScalars projects the scalar summary of a result for direct equality
// comparison.
func scaleScalars(res HammerResult) [11]int64 {
	return [11]int64{
		int64(res.End), res.Calls, res.Served,
		int64(res.QPsPeak), int64(res.SRQPostedPeak), res.RegisteredBytes,
		res.BudgetBytes, int64(res.Sessions), res.Evictions, res.Shed, res.Busy,
	}
}

// assertReplay fails unless two runs wrote the same metrics log, the same
// trace and the same scalars.
func assertReplay(t *testing.T, a, b hammerRun) {
	t.Helper()
	if a.metricsJSON != b.metricsJSON {
		t.Fatalf("metrics JSONL diverged (%d vs %d bytes)", len(a.metricsJSON), len(b.metricsJSON))
	}
	if a.traceJSON != b.traceJSON {
		t.Fatalf("trace JSONL diverged (%d vs %d bytes)", len(a.traceJSON), len(b.traceJSON))
	}
	if scaleScalars(a.res) != scaleScalars(b.res) {
		t.Fatalf("result scalars diverged: %v vs %v", scaleScalars(a.res), scaleScalars(b.res))
	}
}

// assertScaleBounds is the footprint proof shared by every S23 test: physical
// QPs, posted WQEs, registered bytes, and cached sessions must all sit at or
// under their configured caps — numbers that do not grow with cfg.Clients —
// and the same bounds must hold for the snapshot gauges, so an
// external metrics consumer sees the proof too.
func assertScaleBounds(t *testing.T, cfg HammerConfig, res HammerResult) {
	t.Helper()
	cfg.defaults()
	if res.QPsPeak == 0 || res.QPsPeak > cfg.QPMuxCap {
		t.Fatalf("QP peak %d outside (0, cap=%d]", res.QPsPeak, cfg.QPMuxCap)
	}
	if res.SRQPostedPeak == 0 || res.SRQPostedPeak > cfg.SRQDepth {
		t.Fatalf("SRQ posted peak %d outside (0, depth=%d]", res.SRQPostedPeak, cfg.SRQDepth)
	}
	if res.RegisteredBytes == 0 || res.RegisteredBytes > res.BudgetBytes {
		t.Fatalf("registered bytes %d outside (0, budget=%d]", res.RegisteredBytes, res.BudgetBytes)
	}
	if res.Sessions == 0 || res.Sessions > cfg.ConnCacheCap {
		t.Fatalf("live sessions %d outside (0, cap=%d]", res.Sessions, cfg.ConnCacheCap)
	}
	g := res.Final.Gauges
	if got := g["rpc_ib_qp_mux_qps_peak"]; got != int64(res.QPsPeak) {
		t.Fatalf("snapshot qps_peak gauge = %d, result says %d", got, res.QPsPeak)
	}
	if got := g["rpc_ib_srq_posted_peak"]; got != int64(res.SRQPostedPeak) {
		t.Fatalf("snapshot posted_peak gauge = %d, result says %d", got, res.SRQPostedPeak)
	}
	if got := g["rpc_ib_srq_registered_bytes"]; got != res.RegisteredBytes {
		t.Fatalf("snapshot registered_bytes gauge = %d, result says %d", got, res.RegisteredBytes)
	}
	if got := g["rpc_ib_srq_budget_used_bytes"]; got > g["rpc_ib_srq_budget_bytes"] {
		t.Fatalf("snapshot budget used %d exceeds cap %d", got, g["rpc_ib_srq_budget_bytes"])
	}
	if got := g["rpc_conn_cache_size"]; got > int64(cfg.ConnCacheCap) {
		t.Fatalf("snapshot cache size %d exceeds cap %d", got, cfg.ConnCacheCap)
	}
}

// TestHammerReplay is the determinism check of both hammer scenarios: a
// seeded run, twice, writes byte-identical metrics and trace JSONL and the
// same scalars. The scale-out run must exercise SRQ shedding, busy backoff
// retries, QP multiplexing and LRU session eviction while it stays within
// its caps.
func TestHammerReplay(t *testing.T) {
	t.Run("hammer", func(t *testing.T) {
		ref := runHammer(t, hammerCfg(), 4)
		if ref.res.Calls == 0 {
			t.Fatal("reference run completed no calls")
		}
		if !strings.Contains(ref.metricsJSON, HammerCallsMetric) {
			t.Fatal("metrics log missing the calls counter")
		}
		if !strings.Contains(ref.traceJSON, `"name":"hammer.call"`) {
			t.Fatal("trace holds no hammer.call span")
		}
		assertReplay(t, ref, runHammer(t, hammerCfg(), 4))
	})
	t.Run("scaleout", func(t *testing.T) {
		ref := runHammer(t, scaleCfg(), 8)
		if ref.res.Calls == 0 {
			t.Fatal("reference run completed no calls")
		}
		if ref.res.Shed == 0 || ref.res.Busy == 0 {
			t.Fatalf("reference run shed=%d busy=%d; the scenario must exercise the shed path", ref.res.Shed, ref.res.Busy)
		}
		if ref.res.Evictions == 0 {
			t.Fatal("reference run evicted no sessions; the scenario must exercise LRU churn")
		}
		assertScaleBounds(t, scaleCfg(), ref.res)
		assertReplay(t, ref, runHammer(t, scaleCfg(), 8))
	})
}

// TestHammerScaleOutBounds runs a mid-size scale-out hammer (20K clients —
// 5× the default session cache) and proves the server footprint stays at the
// configured caps while the load completes.
func TestHammerScaleOutBounds(t *testing.T) {
	cfg := HammerConfig{
		Nodes: 64, Clients: 20000, Seed: 5,
		Duration: 10 * time.Millisecond,
		Handlers: 64, ThinkTime: 5 * time.Millisecond,
		ScaleOut: true, ConnCacheCap: 1024,
	}
	res := new(Harness).RunHammer(cfg)
	if res.Calls == 0 {
		t.Fatal("no calls completed")
	}
	if res.Evictions == 0 {
		t.Fatal("no sessions evicted: 20K clients must churn a 1024-entry cache")
	}
	assertScaleBounds(t, cfg, res)
}

// scale1MCfg is the headline ROADMAP scenario: one million clients against
// one NameNode whose footprint the caps pin at 64 QPs, 4096 sessions, and a
// 256 KiB registered-buffer budget — O(caps), not O(clients).
func scale1MCfg() HammerConfig {
	return HammerConfig{
		Nodes: 256, Clients: 1_000_000, Seed: 3,
		Duration: 10 * time.Millisecond,
		Handlers: 256, ThinkTime: 20 * time.Millisecond,
		StartSpread: 10 * time.Millisecond,
		ScaleOut:    true,
	}
}

// TestHammerScale1M is the million-client soak, gated behind RPCOIB_SCALE_1M=1
// because it needs a few hundred MB (run it without -race). It proves the
// footprint bounds at full scale and that two runs are identical.
func TestHammerScale1M(t *testing.T) {
	if os.Getenv("RPCOIB_SCALE_1M") == "" {
		t.Skip("set RPCOIB_SCALE_1M=1 to run the million-client soak")
	}
	ref := runHammer(t, scale1MCfg(), 1<<20)
	if ref.res.Calls == 0 {
		t.Fatal("no calls completed")
	}
	if ref.res.Evictions == 0 {
		t.Fatal("no sessions evicted: 1M clients must churn a 4096-entry cache")
	}
	assertScaleBounds(t, scale1MCfg(), ref.res)
	t.Logf("1M clients: calls=%d served=%d shed=%d busy=%d qps_peak=%d sessions=%d evictions=%d",
		ref.res.Calls, ref.res.Served, ref.res.Shed, ref.res.Busy,
		ref.res.QPsPeak, ref.res.Sessions, ref.res.Evictions)
	assertReplay(t, ref, runHammer(t, scale1MCfg(), 1<<20))
}
