package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// hammerDigests hashes every replay-compared output of one hammer run: the
// streamed metrics JSONL, the merged trace JSONL and the scalar summary.
func hammerDigests(run hammerRun) [3]string {
	sum := func(s string) string {
		h := sha256.Sum256([]byte(s))
		return hex.EncodeToString(h[:])
	}
	return [3]string{sum(run.metricsJSON), sum(run.traceJSON), sum(fmt.Sprint(scaleScalars(run.res)))}
}

// TestHammerOutputDigest pins the hammer's outputs across commits, where the
// layout tests (TestHammerReplayAcrossLayouts, TestSRQReplayAcrossLayouts)
// compare runs within one commit only. The digests were recorded at commit
// 66a8d3997d2b6dcd8720ab7a215c2f920f7e3f64, whose sharded kernel ran shards
// on worker goroutines and merged per-shard registries and span buffers; a
// change to the kernel, the fabric, the registry or the span merge that
// moves one simulated event, metric or span fails here.
func TestHammerOutputDigest(t *testing.T) {
	cases := []struct {
		name string
		run  func() hammerRun
		want [3]string
	}{
		{"hammer", func() hammerRun { return runHammer(t, 4, 4) }, [3]string{
			"07e177b70c93368cae61b86e2b386454937fb2ae76bd6cbc3a48ce1d1a6436c1",
			"d27b060fc46e182976372785486465d2f25a66d0326793350bffae40822d02a3",
			"749e9e2a7bff36f2edc33296144d141197d4bba0f00e7693afc910a13b202861",
		}},
		{"scaleout", func() hammerRun { return runScaleHammer(t, scaleCfg(4), 4) }, [3]string{
			"fd3dd44a9ce22234c318f35dadaebdd8d467a68839bb7803f268befa29a3db08",
			"e98722777db998ba65afcd84a0964f9204f0f918b2ae100933ad5d500a34fd04",
			"ad7e512a662d0119cd8df8ec9098e6d1c49d832d9d8dcd6314e1e2252b69ce35",
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
