package bench

import (
	"fmt"
	"io"
	"time"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/core"
	"rpcoib/internal/perfmodel"
)

// PolicyRow is one buffer-pool ablation measurement: the same RPCoIB
// transport with a different buffer-management policy, isolating how much of
// the win is the two-level history pool versus the verbs transport.
type PolicyRow struct {
	Policy       bufpool.Policy
	Latency      time.Duration
	Regets       int64
	PeakBytes    int64 // peak registered native memory on the client
	Unregistered int64 // sends that paid on-the-fly registration
}

// AblationPoolPolicy measures ping-pong latency under each pool policy.
func (h *Harness) AblationPoolPolicy(w io.Writer, payload, iters int) []PolicyRow {
	Fprintf(w, "Ablation: buffer-pool policy at %dB payload (RPCoIB transport held fixed)\n", payload)
	Fprintf(w, "%-12s %12s %8s %14s %14s\n", "policy", "latency(us)", "regets", "peakReg(KB)", "unregSends")
	policies := []bufpool.Policy{
		bufpool.PolicyHistory, bufpool.PolicyFixedSmall,
		bufpool.PolicyFixedLarge, bufpool.PolicyNoPool,
	}
	rows := make([]PolicyRow, 0, len(policies))
	for _, policy := range policies {
		row := h.poolPolicyOnce(policy, payload, iters)
		rows = append(rows, row)
		Fprintf(w, "%-12s %12.1f %8d %14d %14d\n", row.Policy,
			us(row.Latency), row.Regets, row.PeakBytes/1024, row.Unregistered)
	}
	return rows
}

func (h *Harness) poolPolicyOnce(policy bufpool.Policy, payload, iters int) PolicyRow {
	clientPool := bufpool.NewShadowPool(bufpool.NewNativePool(0), policy)
	serverPool := bufpool.NewShadowPool(bufpool.NewNativePool(0), policy)
	run := h.pingPong(pingPong{
		name: "ablation_pool_policy/policy=" + policy.String(),
		mode: core.ModeRPCoIB, serverPool: serverPool, clientPool: clientPool,
		payload: payload, warmup: 3, calls: iters, horizon: time.Minute,
	})
	return PolicyRow{
		Policy:       policy,
		Latency:      run.elapsed / time.Duration(iters),
		Regets:       clientPool.StatsSnapshot().Regets,
		PeakBytes:    clientPool.Native().StatsSnapshot().PeakRegistered,
		Unregistered: run.cl.IBNet().Device(1).StatsSnapshot().UnregisteredTx,
	}
}

// ThresholdRow is one eager/RDMA threshold ablation point.
type ThresholdRow struct {
	Threshold int
	Latency   time.Duration
	Eager     int64
	RDMA      int64
}

// AblationRDMAThreshold sweeps the send/recv-vs-RDMA crossover (the paper's
// "tunable threshold") at a fixed payload.
func (h *Harness) AblationRDMAThreshold(w io.Writer, payload int, thresholds []int, iters int) []ThresholdRow {
	if len(thresholds) == 0 {
		thresholds = []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10}
	}
	Fprintf(w, "Ablation: RDMA threshold sweep at %dB payload\n", payload)
	Fprintf(w, "%12s %12s %8s %8s\n", "threshold", "latency(us)", "eager", "rdma")
	rows := make([]ThresholdRow, 0, len(thresholds))
	for _, th := range thresholds {
		row := h.thresholdOnce(th, payload, iters)
		rows = append(rows, row)
		Fprintf(w, "%12d %12.1f %8d %8d\n", row.Threshold, us(row.Latency), row.Eager, row.RDMA)
	}
	return rows
}

func (h *Harness) thresholdOnce(threshold, payload, iters int) ThresholdRow {
	run := h.pingPong(pingPong{
		name: fmt.Sprintf("ablation_rdma_threshold/threshold=%d", threshold),
		mode: core.ModeRPCoIB, threshold: threshold,
		payload: payload, warmup: 3, calls: iters, horizon: time.Minute,
	})
	st := run.cl.IBNet().Device(1).StatsSnapshot()
	return ThresholdRow{
		Threshold: threshold,
		Latency:   run.elapsed / time.Duration(iters),
		Eager:     st.EagerSends,
		RDMA:      st.RDMASends,
	}
}

// ReadersRow is one Reader-pool-width ablation point: baseline RPC
// throughput as the Hadoop 1.0.3 ipc.server.read.threadpool.size grows.
type ReadersRow struct {
	Readers    int
	Throughput float64 // ops/sec
}

// AblationReaders sweeps the baseline server's read-stage width,
// quantifying how much of RPCoIB's throughput win is the per-connection
// Reader design versus the buffer management.
func (h *Harness) AblationReaders(w io.Writer, widths []int, clients, callsPerClient int) []ReadersRow {
	if len(widths) == 0 {
		widths = []int{1, 2, 4, 8}
	}
	Fprintf(w, "Ablation: baseline reader-pool width (512B payload, %d clients)\n", clients)
	Fprintf(w, "%8s %14s\n", "readers", "Kops/sec")
	rows := make([]ReadersRow, 0, len(widths))
	for _, n := range widths {
		tput := h.readersOnce(n, clients, callsPerClient)
		rows = append(rows, ReadersRow{Readers: n, Throughput: tput})
		Fprintf(w, "%8d %14.1f\n", n, tput/1000)
	}
	return rows
}

func (h *Harness) readersOnce(readers, clients, callsPerClient int) float64 {
	run := h.pingPong(pingPong{
		name: fmt.Sprintf("ablation_readers/readers=%d", readers),
		mode: core.ModeBaseline, kind: perfmodel.IPoIB, handlers: 8, readers: readers,
		payload: 512, clients: clients, calls: callsPerClient, horizon: 10 * time.Minute,
	})
	return float64(clients*callsPerClient) / run.elapsed.Seconds()
}
