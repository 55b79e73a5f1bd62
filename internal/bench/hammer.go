// The NameNode hammer: the S22 scale scenario exercising the sharded kernel
// (sim.ShardedSim via cluster.ShardedCluster), the sharded fabric
// (netsim.ShardFabric), streamed constant-memory metrics
// (metrics.StreamSink), and the sharded span buffer (tracing.ShardSpans) in
// one closed loop — the ROADMAP's 1000-node, 100K-client target, far past
// the paper's 65-node testbed.
//
// Shape: node 0 is the NameNode, running a pool of handler processes that
// drain one shared call queue, charge CPU per request, and reply over the
// fabric; every other node hosts a slice of event-driven clients (no
// goroutine stacks — 100K client processes would dominate memory under
// -race) that send fixed-size requests in a closed loop with think time.
// All randomness comes from per-node streams and all cross-node traffic
// rides the fabric, so the run is byte-identical for any shard count and
// any GOMAXPROCS — asserted by TestHammerReplayAcrossLayouts.
package bench

import (
	"fmt"
	"io"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/ibverbs"
	"rpcoib/internal/metrics"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/sim"
	"rpcoib/internal/tracing"
)

// Metric families the hammer emits.
const (
	// HammerCallsMetric counts completed calls, on the client's registry.
	HammerCallsMetric = "rpc_hammer_calls_total"
	// HammerBytesMetric counts request+response payload bytes per call.
	HammerBytesMetric = "rpc_hammer_bytes_total"
	// HammerLatencyMetric is the client-observed call latency histogram.
	HammerLatencyMetric = "rpc_hammer_call_ns"
	// HammerServedMetric counts requests served, on the NameNode's registry.
	HammerServedMetric = "rpc_hammer_served_total"
	// HammerShedMetric counts arrivals the NameNode shed for want of an SRQ
	// WQE or budget headroom (ScaleOut runs; NameNode registry).
	HammerShedMetric = "rpc_hammer_shed_total"
	// HammerBusyMetric counts busy responses observed client-side before a
	// backed-off retry (ScaleOut runs).
	HammerBusyMetric = "rpc_hammer_busy_total"
)

// busyRespBytes is the fixed size of a shed "too busy" response: a control
// frame, far smaller than a served response.
const busyRespBytes = 16

// HammerConfig sizes the scenario. Zero values take the defaults noted.
type HammerConfig struct {
	Nodes   int   // hosts incl. the NameNode (default 64, min 2)
	Clients int   // total clients over nodes 1..Nodes-1 (default 4×nodes)
	Shards  int   // kernel shards (default 1)
	Seed    int64 // simulation seed (default 1)

	Duration      time.Duration // virtual run length (default 50ms)
	SnapshotEvery time.Duration // streamed snapshot cadence (default 5ms)

	Handlers    int           // NameNode handler processes (default 64)
	ReqSize     int           // request payload bytes (default 256)
	RespSize    int           // response payload bytes (default 128)
	ThinkTime   time.Duration // mean client think between calls (default 10ms)
	ServiceTime time.Duration // mean NameNode CPU per call (default 2µs)

	TraceSampleN uint64 // keep ~1 in N traces (default 64; 1 keeps all)

	MetricsSink *metrics.StreamSink // optional: streamed snapshot deltas
	TraceSink   *tracing.Sink       // optional: merged spans after the run

	// ScaleOut arms the S23 connection scale-out model at the NameNode
	// (DESIGN.md S23): every client attaches a session in a bounded
	// core.ConnCache (LRU eviction hands its QP slot and SRQ credit back), a
	// bounded ibverbs.QPMux assigns sessions to physical QPs, and each
	// arrival must win one SRQ WQE from a registered-buffer pool reserved
	// out of an ibverbs.MemoryBudget — or be shed as "busy", which the
	// client retries after a backoff. Server footprint is thereby
	// O(QPMuxCap + ConnCacheCap + SRQDepth), independent of Clients, and the
	// run's metrics prove it.
	ScaleOut     bool
	QPMuxCap     int           // physical QPs at the NameNode (default 64)
	ConnCacheCap int           // cached client sessions (default 4096)
	SRQDepth     int           // posted recv WQEs (default 8×Handlers)
	SRQCredit    int           // WQEs one session may hold (default 4)
	SRQBufBytes  int           // registered bytes per WQE (default 512)
	MemBudget    int64         // registered-byte budget (default SRQDepth×SRQBufBytes)
	BackoffTime  time.Duration // mean client backoff after busy (default 2×ThinkTime)
	StartSpread  time.Duration // client start stagger window (default ThinkTime)
}

func (cfg *HammerConfig) defaults() {
	if cfg.Nodes < 2 {
		cfg.Nodes = 64
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4 * cfg.Nodes
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 50 * time.Millisecond
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 5 * time.Millisecond
	}
	if cfg.Handlers <= 0 {
		cfg.Handlers = 64
	}
	if cfg.ReqSize <= 0 {
		cfg.ReqSize = 256
	}
	if cfg.RespSize <= 0 {
		cfg.RespSize = 128
	}
	if cfg.ThinkTime <= 0 {
		cfg.ThinkTime = 10 * time.Millisecond
	}
	if cfg.ServiceTime <= 0 {
		cfg.ServiceTime = 2 * time.Microsecond
	}
	if cfg.TraceSampleN == 0 {
		cfg.TraceSampleN = 64
	}
	if cfg.StartSpread <= 0 {
		cfg.StartSpread = cfg.ThinkTime
	}
	if cfg.ScaleOut {
		if cfg.QPMuxCap <= 0 {
			cfg.QPMuxCap = 64
		}
		if cfg.ConnCacheCap <= 0 {
			cfg.ConnCacheCap = 4096
		}
		if cfg.SRQDepth <= 0 {
			cfg.SRQDepth = 8 * cfg.Handlers
		}
		if cfg.SRQCredit <= 0 {
			cfg.SRQCredit = 4
		}
		if cfg.SRQBufBytes <= 0 {
			cfg.SRQBufBytes = 512
		}
		if cfg.MemBudget <= 0 {
			cfg.MemBudget = int64(cfg.SRQDepth) * int64(cfg.SRQBufBytes)
		}
		if cfg.BackoffTime <= 0 {
			cfg.BackoffTime = 2 * cfg.ThinkTime
		}
	}
}

// HammerResult summarizes one run.
type HammerResult struct {
	End       time.Duration    // virtual time of the last processed event
	Calls     int64            // completed calls (client side)
	Served    int64            // requests served (NameNode side)
	Final     metrics.Snapshot // merged cluster snapshot at Duration
	Snapshots int64            // streamed snapshot deltas emitted
	Spans     int              // spans merged into the trace sink
	SpanDrops int64            // span-buffer overflow (0 in replay-compared runs)
	Barriers  int64            // kernel synchronization rounds (layout-invariant)

	// Scale-out proof points, zero unless ScaleOut: the S23 tests assert
	// the footprint bounds directly on these (and on the Final snapshot's
	// rpc_ib_srq_* / rpc_ib_qp_mux_* / rpc_conn_cache_* families).
	QPsPeak         int   // high-water physical QPs (must stay ≤ QPMuxCap)
	SRQPostedPeak   int   // high-water posted WQEs (must stay ≤ SRQDepth)
	RegisteredBytes int64 // SRQ registered footprint (must stay ≤ MemBudget)
	BudgetBytes     int64 // effective budget cap
	Sessions        int   // live cached sessions at the end (≤ ConnCacheCap)
	Evictions       int64 // LRU sessions displaced by new arrivals
	Shed            int64 // arrivals shed for want of a WQE
	Busy            int64 // busy responses clients retried after backoff
}

// hammerReq is one in-flight request: where it came from and how to answer.
// respond is a client-shard closure carried opaquely through the server; it
// is invoked with false when the NameNode shed the call.
type hammerReq struct {
	src     int
	client  int
	respond func(ok bool)
	cr      *ibverbs.SRQCredit // WQE held while the request waits (ScaleOut)
}

// hammerSession is the NameNode-side per-client state the ConnCache bounds:
// which physical QP the client's stream rides and its SRQ credit account.
type hammerSession struct {
	qp int
	cr *ibverbs.SRQCredit
}

// hammerScale is the NameNode-side scale-out machinery. Every field is only
// touched from shard 0 (fabric deliveries to node 0 and the handler procs),
// so the gauges inside keep their single-writer discipline.
type hammerScale struct {
	budget *ibverbs.MemoryBudget
	srq    *ibverbs.SRQ
	mux    *ibverbs.QPMux
	cache  *core.ConnCache
	shed   *metrics.Counter
}

// attach resolves the client's cached session, creating (and possibly
// LRU-evicting) on miss. Eviction hands the QP slot and credit account back
// via the cache hook, so footprint never exceeds the caps.
func (s *hammerScale) attach(client int) *hammerSession {
	v, _ := s.cache.GetOrCreate(core.RuntimeKey{Node: client, Config: "hammer"}, func() any {
		qp, _ := s.mux.Attach()
		return &hammerSession{qp: qp, cr: s.srq.Attach()}
	})
	return v.(*hammerSession)
}

// RunHammer executes the scenario and returns its summary. The caller owns
// the sinks (Close them after; StreamSink's overflow line is written there).
func RunHammer(cfg HammerConfig) HammerResult {
	cfg.defaults()

	cc := cluster.ClusterA(cfg.Nodes)
	cc.Seed = cfg.Seed
	cc.Shards = cfg.Shards
	sc := cluster.NewSharded(cc, perfmodel.Link(perfmodel.NativeIB).Latency)
	defer sc.Close()
	fab := sc.NewFabric(perfmodel.NativeIB)
	spans := tracing.NewShardSpans(cfg.TraceSampleN)
	if cfg.MetricsSink != nil {
		cfg.MetricsSink.Instrument(sc.Registry(0))
	}

	// Scale-out state lives outside the kernel (plain mutex accounting), but
	// all operational writes happen on shard 0. Instruments register before
	// the run so the families appear even in all-zero snapshots.
	var scale *hammerScale
	if cfg.ScaleOut {
		reg := sc.Registry(0)
		budget := ibverbs.NewMemoryBudget(cfg.MemBudget)
		budget.Instrument(reg)
		srq := ibverbs.NewSRQ(cfg.SRQDepth, cfg.SRQCredit, cfg.SRQBufBytes, budget)
		srq.Instrument(reg)
		mux := ibverbs.NewQPMux(cfg.QPMuxCap)
		mux.Instrument(reg)
		cache := core.NewConnCache(cfg.ConnCacheCap)
		cache.Instrument(reg)
		cache.SetOnEvict(func(_ core.RuntimeKey, v any) {
			sess := v.(*hammerSession)
			mux.Detach(sess.qp)
			srq.Detach(sess.cr)
		})
		scale = &hammerScale{budget: budget, srq: srq, mux: mux, cache: cache,
			shed: reg.Counter(HammerShedMetric)}
		reg.Counter(HammerBusyMetric) // client-side family; pre-register for snapshots
	}

	// NameNode: one shared unbounded call queue drained by handler processes.
	// nnq is written once in the first window (t=0) and read by fabric
	// deliveries that cannot arrive before one link latency — all on shard 0.
	var nnq exec.Queue
	sc.SpawnOn(0, "namenode", func(e exec.Env) {
		nnq = e.NewQueue(0)
		reg := sc.Registry(0)
		served := reg.Counter(HammerServedMetric)
		for h := 0; h < cfg.Handlers; h++ {
			e.Spawn(fmt.Sprintf("handler-%d", h), func(he exec.Env) {
				for {
					v, ok := nnq.Get(he)
					if !ok {
						return
					}
					req := v.(*hammerReq)
					// Half fixed, half jitter: a lookup with variable work.
					he.Work(cfg.ServiceTime/2 + time.Duration(he.Rand().Int63n(int64(cfg.ServiceTime))))
					if req.cr != nil {
						scale.srq.Release(req.cr) // WQE reposts once service is done
					}
					served.Inc()
					fab.Send(0, req.src, cfg.RespSize, func() { req.respond(true) })
				}
			})
		}
	})

	// Clients: event-driven closed loops, round-robin over nodes 1..N-1.
	// Trace IDs derive from (seed, client, call) alone, so the sampled set is
	// identical across layouts.
	for i := 0; i < cfg.Clients; i++ {
		clientID := i
		node := 1 + i%(cfg.Nodes-1)
		var call func()
		var seq int64
		call = func() {
			start := sc.NowAt(node)
			if start >= cfg.Duration {
				return
			}
			seq++
			trace := uint64(sim.SubSeed(sim.SubSeed(cfg.Seed, 1_000_000_000+int64(clientID)), seq))
			respond := func(ok bool) {
				end := sc.NowAt(node)
				reg := sc.Registry(node)
				if !ok {
					// Shed at the NameNode: count the busy response and retry
					// after a backoff (half fixed, half jitter — the S19 retry
					// shape). The retry is a fresh call with a fresh trace ID.
					reg.Counter(HammerBusyMetric).Inc()
					backoff := cfg.BackoffTime/2 + time.Duration(sc.NodeRand(node).Int63n(int64(cfg.BackoffTime)))
					sc.LocalAt(node, end+backoff, call)
					return
				}
				reg.Counter(HammerCallsMetric).Inc()
				reg.Counter(HammerBytesMetric).Add(int64(cfg.ReqSize + cfg.RespSize))
				reg.Histogram(HammerLatencyMetric, nil).Observe(int64(end - start))
				if spans.Sampled(trace) {
					spans.Emit(tracing.Span{
						Trace: trace, ID: 1, Name: "hammer.call", Kind: "client",
						StartNS: int64(start), DurNS: int64(end - start),
					})
				}
				think := cfg.ThinkTime/2 + time.Duration(sc.NodeRand(node).Int63n(int64(cfg.ThinkTime)))
				sc.LocalAt(node, end+think, call)
			}
			fab.Send(node, 0, cfg.ReqSize, func() {
				if scale != nil {
					sess := scale.attach(clientID)
					if !scale.srq.TryConsume(sess.cr) {
						// No WQE (or this session is over its credit): shed
						// with a small busy frame instead of queueing.
						scale.shed.Inc()
						fab.Send(0, node, busyRespBytes, func() { respond(false) })
						return
					}
					nnq.TryPut(&hammerReq{src: node, client: clientID, respond: respond, cr: sess.cr})
					return
				}
				nnq.TryPut(&hammerReq{src: node, client: clientID, respond: respond})
			})
		}
		// Stagger starts across the spread window, drawn from the node stream
		// in client-ID order (deterministic and layout-invariant).
		startAt := time.Duration(sc.NodeRand(node).Int63n(int64(cfg.StartSpread)))
		sc.LocalAt(node, startAt, call)
	}

	// Drive in snapshot slices: every horizon is a barrier, where the merged
	// registry view is consistent and safe to stream.
	res := HammerResult{}
	var end time.Duration
	for t := cfg.SnapshotEvery; ; t += cfg.SnapshotEvery {
		if t > cfg.Duration {
			t = cfg.Duration
		}
		end = sc.RunUntil(t)
		if cfg.MetricsSink != nil {
			if err := cfg.MetricsSink.Emit(sc.Snapshot(t)); err != nil {
				panic(fmt.Sprintf("bench: hammer metrics stream: %v", err))
			}
			res.Snapshots++
		}
		if t >= cfg.Duration {
			break
		}
	}

	res.End = end
	res.Final = sc.Snapshot(cfg.Duration)
	res.Calls = res.Final.Counters[HammerCallsMetric]
	res.Served = res.Final.Counters[HammerServedMetric]
	res.Barriers = sc.Kernel.Barriers()
	res.SpanDrops = spans.Dropped()
	if cfg.TraceSink != nil {
		res.Spans = spans.Merge(cfg.TraceSink)
	}
	if scale != nil {
		res.QPsPeak = scale.mux.QPsPeak()
		res.SRQPostedPeak = scale.srq.PostedPeak()
		res.RegisteredBytes = scale.srq.RegisteredBytes()
		res.BudgetBytes = scale.budget.Cap()
		res.Sessions = scale.cache.Len()
		res.Evictions = scale.cache.Evictions()
		res.Shed = res.Final.Counters[HammerShedMetric]
		res.Busy = res.Final.Counters[HammerBusyMetric]
	}
	return res
}

// HammerReport writes a one-paragraph summary row for the CLI.
func HammerReport(w io.Writer, cfg HammerConfig, res HammerResult, wall time.Duration) {
	cfg.defaults() // print the effective caps, not zero placeholders
	lat := res.Final.Histograms[HammerLatencyMetric]
	fmt.Fprintf(w, "hammer: nodes=%d clients=%d shards=%d calls=%d served=%d barriers=%d virt=%v wall=%v p50=%v p99=%v\n",
		cfg.Nodes, cfg.Clients, cfg.Shards, res.Calls, res.Served, res.Barriers,
		res.End, wall.Round(time.Millisecond),
		time.Duration(lat.Quantile(0.5)), time.Duration(lat.Quantile(0.99)))
	if cfg.ScaleOut {
		fmt.Fprintf(w, "scaleout: qps_peak=%d/%d srq_peak=%d/%d reg_bytes=%d/%d sessions=%d/%d evictions=%d shed=%d busy=%d\n",
			res.QPsPeak, cfg.QPMuxCap, res.SRQPostedPeak, cfg.SRQDepth,
			res.RegisteredBytes, res.BudgetBytes,
			res.Sessions, cfg.ConnCacheCap, res.Evictions, res.Shed, res.Busy)
	}
}
