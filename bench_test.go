package rpcoib

// One benchmark per table/figure of the paper's evaluation, plus the
// ablations called out in DESIGN.md. Each benchmark runs a scaled-down
// version of the experiment (so `go test -bench=.` completes in minutes) and
// reports the headline quantity via b.ReportMetric, on a zero bench.Harness
// (no metrics, trace or faults); the cmd/ binaries run the full paper-scale
// versions and print the complete tables recorded in EXPERIMENTS.md.

import (
	"fmt"
	"testing"

	"rpcoib/internal/bench"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
	"rpcoib/internal/ycsb"
)

// BenchmarkTable1Profile regenerates Table I (RPC invocation profiling in a
// Sort job; scaled to 1 GB on 9 nodes).
func BenchmarkTable1Profile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := new(bench.Harness).Table1Profile(nil, 1)
		rows := core.SendRows(res.Profile)
		if len(rows) < 10 {
			b.Fatalf("only %d profiled call kinds", len(rows))
		}
		b.ReportMetric(float64(len(rows)), "callkinds")
		b.ReportMetric(res.SortTime.Seconds(), "sort-s")
	}
}

// BenchmarkFig1AllocRatio regenerates Figure 1 (buffer-allocation share of
// call receive time) at the 2 MB point.
func BenchmarkFig1AllocRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := new(bench.Harness).Fig1AllocRatio(nil, []int{2 << 20}, 10)
		b.ReportMetric(rows[0].IPoIB, "ratio-ipoib")
		b.ReportMetric(rows[0].OneGigE, "ratio-1gige")
	}
}

// BenchmarkFig3SizeLocality regenerates Figure 3 (message size locality)
// from a profiled Sort run.
func BenchmarkFig3SizeLocality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := new(bench.Harness).Table1Profile(nil, 1)
		series := bench.Fig3SizeLocality(nil, res)
		for _, s := range series {
			b.ReportMetric(s.Locality, "locality-"+s.Name)
		}
	}
}

// BenchmarkFig5aLatency regenerates Figure 5(a) and reports the 1-byte
// latencies (microseconds).
func BenchmarkFig5aLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := new(bench.Harness).Fig5aLatency(nil, []int{1, 4096}, 50)
		b.ReportMetric(float64(rows[0].RPCoIB.Microseconds()), "us-rpcoib-1B")
		b.ReportMetric(float64(rows[0].IPoIB.Microseconds()), "us-ipoib-1B")
		b.ReportMetric(float64(rows[1].RPCoIB.Microseconds()), "us-rpcoib-4KB")
	}
}

// BenchmarkFig5bThroughput regenerates Figure 5(b) at the 64-client peak.
func BenchmarkFig5bThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := new(bench.Harness).Fig5bThroughput(nil, []int{64}, 100)
		b.ReportMetric(rows[0].RPCoIB, "kops-rpcoib")
		b.ReportMetric(rows[0].IPoIB, "kops-ipoib")
		b.ReportMetric(rows[0].TenGigE, "kops-10gige")
	}
}

// BenchmarkFig6aSort regenerates Figure 6(a) scaled down (8 slaves, 4 GB).
func BenchmarkFig6aSort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := new(bench.Harness).Fig6aSort(nil, 8, []int{4})
		for _, p := range points {
			b.ReportMetric(p.Sort.Seconds(), "sort-s-"+p.Mode)
			b.ReportMetric(p.RandomWriter.Seconds(), "rw-s-"+p.Mode)
		}
	}
}

// BenchmarkFig6bCloudBurst regenerates Figure 6(b) (full shape: 9 nodes,
// 240/48 + 24/24 tasks).
func BenchmarkFig6bCloudBurst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := new(bench.Harness).Fig6bCloudBurst(nil)
		for _, p := range points {
			b.ReportMetric(p.Total.Seconds(), "total-s-"+p.Mode)
		}
	}
}

// BenchmarkFig7HDFSWrite regenerates Figure 7 scaled down (8 DataNodes,
// 1 GB files, all seven configurations).
func BenchmarkFig7HDFSWrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := new(bench.Harness).Fig7HDFSWrite(nil, 8, []int{1})
		for _, p := range points {
			b.ReportMetric(p.Time.Seconds(), "s-"+p.Config)
		}
	}
}

func benchFig8(b *testing.B, mix ycsb.Mix, name string) {
	for i := 0; i < b.N; i++ {
		points := new(bench.Harness).Fig8HBase(nil, mix, name, []int{50_000}, 32_000)
		for _, p := range points {
			b.ReportMetric(p.Kops, "kops-"+p.Config)
		}
	}
}

// BenchmarkFig8aGet regenerates Figure 8(a): 100% Get.
func BenchmarkFig8aGet(b *testing.B) { benchFig8(b, ycsb.WorkloadGet, "100%Get") }

// BenchmarkFig8bPut regenerates Figure 8(b): 100% Put.
func BenchmarkFig8bPut(b *testing.B) { benchFig8(b, ycsb.WorkloadPut, "100%Put") }

// BenchmarkFig8cMix regenerates Figure 8(c): 50% Get / 50% Put.
func BenchmarkFig8cMix(b *testing.B) { benchFig8(b, ycsb.WorkloadMix, "50-50") }

// BenchmarkAblationPoolPolicy isolates the buffer-management contribution:
// the RPCoIB transport under each pool policy.
func BenchmarkAblationPoolPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := new(bench.Harness).AblationPoolPolicy(nil, 512, 200)
		for _, r := range rows {
			b.ReportMetric(float64(r.Latency.Microseconds()), "us-"+r.Policy.String())
		}
	}
}

// BenchmarkAblationRDMAThreshold sweeps the eager/RDMA crossover at 64 KB.
func BenchmarkAblationRDMAThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := new(bench.Harness).AblationRDMAThreshold(nil, 64<<10, nil, 50)
		for _, r := range rows {
			b.ReportMetric(float64(r.Latency.Microseconds()), fmt.Sprintf("us-thresh-%dK", r.Threshold>>10))
		}
	}
}

// BenchmarkRealModeAllocs measures real Go allocations per RPC over actual
// TCP: the baseline per-call DataOutputBuffer/receive-buffer churn versus
// the pooled RPCoIB serialization path. This is the paper's memory argument
// observable without any simulation.
func BenchmarkRealModeAllocs(b *testing.B) {
	for _, mode := range []Mode{ModeBaseline, ModeRPCoIB} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			env := exec.NewRealEnv(1)
			nw := transport.NewTCPNetwork("")
			srv := NewServer(nw, Options{Mode: mode})
			srv.Register("bench.Proto", "echo",
				func() wire.Writable { return &wire.BytesWritable{} },
				func(e exec.Env, p wire.Writable) (wire.Writable, error) { return p, nil })
			if err := srv.Start(env, 0); err != nil {
				b.Fatal(err)
			}
			defer srv.Stop()
			client := NewClient(nw, Options{Mode: mode})
			defer client.Close()
			param := &BytesWritable{Value: make([]byte, 512)}
			var reply BytesWritable
			// Warm up connection and pool history.
			if err := client.Call(env, srv.Addr(), "bench.Proto", "echo", param, &reply); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := client.Call(env, srv.Addr(), "bench.Proto", "echo", param, &reply); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSerializationPath compares the two serialization paths directly
// (no network): Algorithm-1 DataOutputBuffer versus pooled RDMAOutputStream.
func BenchmarkSerializationPath(b *testing.B) {
	payload := &BytesWritable{Value: make([]byte, 600)}
	b.Run("baseline-algorithm1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := wire.NewDataOutputBuffer()
			out := wire.NewDataOutput(d)
			payload.Write(out)
		}
	})
	b.Run("rpcoib-pooled", func(b *testing.B) {
		pool := NewBufferPool(PolicyHistory)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewRDMAOutputStreamForBench(pool, "k")
			out := wire.NewDataOutput(s)
			payload.Write(out)
			s.Release()
		}
	})
}
