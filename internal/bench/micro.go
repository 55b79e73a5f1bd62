package bench

import (
	"fmt"
	"io"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/wire"
)

// LatencyRow is one Figure 5(a) point.
type LatencyRow struct {
	Payload int
	TenGigE time.Duration
	IPoIB   time.Duration
	RPCoIB  time.Duration
}

// pingPongLatency measures the warm average round trip on Cluster B.
func pingPongLatency(mode core.Mode, kind perfmodel.LinkKind, payload, iters int) time.Duration {
	cl := newCluster(cluster.ClusterB())
	startPingPongServer(cl, mode, kind, core.DefaultHandlers)
	var avg time.Duration
	cl.SpawnOn(1, "client", func(e exec.Env) {
		e.Sleep(time.Millisecond)
		client := core.NewClient(netFor(cl, mode, kind, 1),
			core.Options{Mode: mode, Costs: cl.Costs, Metrics: benchReg, Trace: benchTrace})
		param := &wire.BytesWritable{Value: make([]byte, payload)}
		var reply wire.BytesWritable
		for i := 0; i < 3; i++ { // warm-up: connection + pool history
			if err := client.Call(e, "node0:9000", "bench.PingPongProtocol", "pingpong", param, &reply); err != nil {
				panic(err)
			}
		}
		start := e.Now()
		for i := 0; i < iters; i++ {
			if err := client.Call(e, "node0:9000", "bench.PingPongProtocol", "pingpong", param, &reply); err != nil {
				panic(err)
			}
		}
		avg = (e.Now() - start) / time.Duration(iters)
	})
	end := cl.RunUntil(time.Minute)
	recordRun(fmt.Sprintf("pingpong_latency/mode=%s/kind=%s/payload=%d", mode, kind, payload), end)
	return avg
}

// Fig5aLatency reproduces Figure 5(a): ping-pong latency for payloads from
// 1 B to 4 KB under RPC-10GigE, RPC-IPoIB and RPCoIB.
func Fig5aLatency(w io.Writer, payloads []int, iters int) []LatencyRow {
	if len(payloads) == 0 {
		payloads = []int{1, 4, 16, 64, 256, 1024, 4096}
	}
	Fprintf(w, "Figure 5(a): RPC ping-pong latency (us), single server / single client\n")
	Fprintf(w, "%8s %12s %12s %12s %10s %10s\n", "payload", "RPC-10GigE", "RPC-IPoIB", "RPCoIB", "vs10GigE", "vsIPoIB")
	rows := make([]LatencyRow, 0, len(payloads))
	for _, p := range payloads {
		row := LatencyRow{
			Payload: p,
			TenGigE: pingPongLatency(core.ModeBaseline, perfmodel.TenGigE, p, iters),
			IPoIB:   pingPongLatency(core.ModeBaseline, perfmodel.IPoIB, p, iters),
			RPCoIB:  pingPongLatency(core.ModeRPCoIB, perfmodel.NativeIB, p, iters),
		}
		rows = append(rows, row)
		Fprintf(w, "%8d %12.1f %12.1f %12.1f %9.0f%% %9.0f%%\n", p,
			us(row.TenGigE), us(row.IPoIB), us(row.RPCoIB),
			100*(1-float64(row.RPCoIB)/float64(row.TenGigE)),
			100*(1-float64(row.RPCoIB)/float64(row.IPoIB)))
	}
	return rows
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ThroughputRow is one Figure 5(b) point (Kops/sec).
type ThroughputRow struct {
	Clients int
	TenGigE float64
	IPoIB   float64
	RPCoIB  float64
}

// throughput measures aggregate ops/sec: 512-byte payloads, 8 handlers,
// clients spread over 8 nodes, as in the paper.
func throughput(mode core.Mode, kind perfmodel.LinkKind, clients, callsPerClient int) float64 {
	cl := newCluster(cluster.ClusterB())
	startPingPongServer(cl, mode, kind, 8)
	done := 0
	var finish time.Duration
	for i := 0; i < clients; i++ {
		node := 1 + i%8
		cl.SpawnOn(node, fmt.Sprintf("client%d", i), func(e exec.Env) {
			e.Sleep(time.Millisecond)
			client := core.NewClient(netFor(cl, mode, kind, node),
				core.Options{Mode: mode, Costs: cl.Costs, Metrics: benchReg, Trace: benchTrace})
			param := &wire.BytesWritable{Value: make([]byte, 512)}
			var reply wire.BytesWritable
			for j := 0; j < callsPerClient; j++ {
				if err := client.Call(e, "node0:9000", "bench.PingPongProtocol", "pingpong", param, &reply); err != nil {
					panic(err)
				}
				done++
			}
			if e.Now() > finish {
				finish = e.Now()
			}
		})
	}
	end := cl.RunUntil(10 * time.Minute)
	if done != clients*callsPerClient || finish <= time.Millisecond {
		panic(fmt.Sprintf("throughput run incomplete: %d/%d", done, clients*callsPerClient))
	}
	recordRun(fmt.Sprintf("rpc_throughput/mode=%s/kind=%s/clients=%d", mode, kind, clients), end)
	return float64(done) / (finish - time.Millisecond).Seconds()
}

// Fig5bThroughput reproduces Figure 5(b): aggregate throughput vs number of
// concurrent clients.
func Fig5bThroughput(w io.Writer, clientCounts []int, callsPerClient int) []ThroughputRow {
	if len(clientCounts) == 0 {
		clientCounts = []int{8, 16, 24, 32, 40, 48, 56, 64}
	}
	Fprintf(w, "Figure 5(b): RPC throughput (Kops/sec), 512B payload, 8 handlers\n")
	Fprintf(w, "%8s %12s %12s %12s %10s %10s\n", "clients", "RPC-10GigE", "RPC-IPoIB", "RPCoIB", "vs10GigE", "vsIPoIB")
	rows := make([]ThroughputRow, 0, len(clientCounts))
	for _, n := range clientCounts {
		row := ThroughputRow{
			Clients: n,
			TenGigE: throughput(core.ModeBaseline, perfmodel.TenGigE, n, callsPerClient) / 1000,
			IPoIB:   throughput(core.ModeBaseline, perfmodel.IPoIB, n, callsPerClient) / 1000,
			RPCoIB:  throughput(core.ModeRPCoIB, perfmodel.NativeIB, n, callsPerClient) / 1000,
		}
		rows = append(rows, row)
		Fprintf(w, "%8d %12.1f %12.1f %12.1f %9.0f%% %9.0f%%\n", n,
			row.TenGigE, row.IPoIB, row.RPCoIB,
			100*(row.RPCoIB/row.TenGigE-1), 100*(row.RPCoIB/row.IPoIB-1))
	}
	return rows
}

// AllocRatioRow is one Figure 1 point: the share of server-side call receive
// time spent in buffer allocation.
type AllocRatioRow struct {
	Payload int
	OneGigE float64
	IPoIB   float64
}

// Fig1AllocRatio reproduces Figure 1 with the default Hadoop RPC design.
func Fig1AllocRatio(w io.Writer, payloads []int, iters int) []AllocRatioRow {
	if len(payloads) == 0 {
		payloads = []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 2 << 20, 4 << 20}
	}
	Fprintf(w, "Figure 1: buffer allocation time / call receive time (default RPC)\n")
	Fprintf(w, "%10s %10s %10s\n", "payload", "1GigE", "IPoIB")
	measure := func(kind perfmodel.LinkKind, payload int) float64 {
		return core.AllocRatio(observed(func() time.Duration {
			cl := newCluster(cluster.ClusterB())
			startPingPongServer(cl, core.ModeBaseline, kind, core.DefaultHandlers)
			cl.SpawnOn(1, "client", func(e exec.Env) {
				e.Sleep(time.Millisecond)
				client := core.NewClient(netFor(cl, core.ModeBaseline, kind, 1),
					core.Options{Mode: core.ModeBaseline, Costs: cl.Costs, Metrics: benchReg, Trace: benchTrace})
				param := &wire.BytesWritable{Value: make([]byte, payload)}
				var reply wire.BytesWritable
				for i := 0; i < iters; i++ {
					if err := client.Call(e, "node0:9000", "bench.PingPongProtocol", "pingpong", param, &reply); err != nil {
						panic(err)
					}
				}
			})
			end := cl.RunUntil(10 * time.Minute)
			recordRun(fmt.Sprintf("fig1_alloc_ratio/kind=%s/payload=%d", kind, payload), end)
			return end
		}))
	}
	rows := make([]AllocRatioRow, 0, len(payloads))
	for _, p := range payloads {
		row := AllocRatioRow{
			Payload: p,
			OneGigE: measure(perfmodel.OneGigE, p),
			IPoIB:   measure(perfmodel.IPoIB, p),
		}
		rows = append(rows, row)
		Fprintf(w, "%10d %10.3f %10.3f\n", p, row.OneGigE, row.IPoIB)
	}
	return rows
}
