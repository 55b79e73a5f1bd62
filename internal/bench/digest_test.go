package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// hammerDigests hashes every replay-compared output of one hammer run: the
// metrics event log, the trace JSONL and the scalar summary.
func hammerDigests(run hammerRun) [3]string {
	sum := func(s string) string {
		h := sha256.Sum256([]byte(s))
		return hex.EncodeToString(h[:])
	}
	return [3]string{sum(run.metricsJSON), sum(run.traceJSON), sum(fmt.Sprint(scaleScalars(run.res)))}
}

// TestHammerOutputDigest pins the hammer's outputs across commits, where
// TestHammerReplay compares two runs within one commit only. A change to the
// kernel, the fabric, the registry or the tracer that moves one simulated
// event, metric or span fails here.
//
// The digests were re-recorded once when the hammer moved from the sharded
// kernel onto one sim.Sim (DESIGN.md S38): one (at, seq) event order and one
// random stream replaced the per-node streams and the mailbox merge, the
// cluster's native-IB netsim.Fabric replaced the sharded fabric, the
// harness's metrics log replaced the streamed snapshot deltas, and tracer
// span IDs replaced trace IDs hashed from (seed, client, call).
func TestHammerOutputDigest(t *testing.T) {
	cases := []struct {
		name string
		run  func() hammerRun
		want [3]string
	}{
		{"hammer", func() hammerRun { return runHammer(t, hammerCfg(), 4) }, [3]string{
			"4d9e2f8c955fb9194391d4e328142d714740a22549ed554306e3f02d7acc202b",
			"ed438b1b27e1ece05a1187ae5e67c712eaa581858b6c3f601522d8a86e6cced5",
			"102879af1fcaed0986ac2e5d0d5c8b18c31e5d276c55ed96fa6da2e5c08e2b8c",
		}},
		{"scaleout", func() hammerRun { return runHammer(t, scaleCfg(), 8) }, [3]string{
			"0f0789d256b9f538208b4337268f112150f063f5750386635f20b447d75c6502",
			"2e4fd0a3be87e41f55fd94c5c5cf3d1801d6c6a984436d3dd2b4773ec184cd53",
			"73335a7adcc52b2bc188e5436284b126b5917a0cf1612d1af274cad7159a4e2b",
		}},
	}
	for _, c := range cases {
		got := hammerDigests(c.run())
		for i, what := range []string{"metrics JSONL", "trace JSONL", "scalars"} {
			if got[i] != c.want[i] {
				t.Errorf("%s: %s digest %s, want %s", c.name, what, got[i], c.want[i])
			}
		}
	}
}
