// The NameNode hammer: the scale scenario far past the paper's 65-node
// testbed — the ROADMAP's 1000-node, 100K-client target and, with ScaleOut,
// the million-client proof of the S23 connection caps.
//
// Shape: node 0 is the NameNode, running a pool of handler processes that
// drain one shared call queue, charge CPU per request, and reply over the
// cluster's native-IB fabric; every other node hosts a slice of event-driven
// clients (no goroutine stacks — 100K client processes would dominate memory
// under -race) that send fixed-size requests in a closed loop with think
// time. The run is one sim.Sim: every random draw comes from its one stream
// in event order, so a seed replays byte for byte (TestHammerReplay).
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
	Seed    int64 // simulation seed (default 1)

	Duration time.Duration // virtual run length (default 50ms)

	Handlers    int           // NameNode handler processes (default 64)
	ReqSize     int           // request payload bytes (default 256)
	RespSize    int           // response payload bytes (default 128)
	ThinkTime   time.Duration // mean client think between calls (default 10ms)
	ServiceTime time.Duration // mean NameNode CPU per call (default 2µs)

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
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 50 * time.Millisecond
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
	End    time.Duration    // virtual time the run stopped at
	Calls  int64            // completed calls (client side)
	Served int64            // requests served (NameNode side)
	Final  metrics.Snapshot // the registry at End (with metrics on, cumulative over the harness's runs)

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
// respond is invoked with false when the NameNode shed the call.
type hammerReq struct {
	src     int
	respond func(ok bool)
	cr      *ibverbs.SRQCredit // WQE held while the request waits (ScaleOut)
}

// hammerSession is the NameNode-side per-client state the ConnCache bounds:
// which physical QP the client's stream rides and its SRQ credit account.
type hammerSession struct {
	qp int
	cr *ibverbs.SRQCredit
}

// hammerScale is the NameNode-side scale-out machinery.
type hammerScale struct {
	budget *ibverbs.MemoryBudget
	srq    *ibverbs.SRQ
	mux    *ibverbs.QPMux
	cache  *core.ConnCache
	shed   *metrics.Counter // arrivals shed at the NameNode
	busy   *metrics.Counter // busy responses clients retried
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

// RunHammer executes the scenario and returns its summary. Its counters go
// into the harness registry (a private one when metrics are off), its
// hammer.call spans through the harness tracer, and the run is logged as
// "hammer".
func (h *Harness) RunHammer(cfg HammerConfig) HammerResult {
	cfg.defaults()
	h = h.withRegistry()
	cc := cluster.ClusterA(cfg.Nodes)
	cc.Seed = cfg.Seed
	c := cluster.New(cc)
	fab := c.IBRailFabric(0)
	rng := c.Sim.Rand()
	reg := h.reg
	calls := reg.Counter(HammerCallsMetric)
	payload := reg.Counter(HammerBytesMetric)
	latency := reg.Histogram(HammerLatencyMetric, nil)
	served := reg.Counter(HammerServedMetric)

	// Instruments register before the run so the families appear even in
	// all-zero snapshots.
	var scale *hammerScale
	if cfg.ScaleOut {
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
			shed: reg.Counter(HammerShedMetric), busy: reg.Counter(HammerBusyMetric)}
	}

	// NameNode: one shared unbounded call queue drained by handler processes.
	// nnq is made at t=0, before any request can cross the fabric.
	var nnq exec.Queue
	c.SpawnOn(0, "namenode", func(e exec.Env) {
		nnq = e.NewQueue(0)
		for i := 0; i < cfg.Handlers; i++ {
			e.Spawn(fmt.Sprintf("handler-%d", i), func(he exec.Env) {
				for {
					v, ok := nnq.Get(he)
					if !ok {
						return
					}
					req := v.(*hammerReq)
					// Half fixed, half jitter: a lookup with variable work.
					he.Work(cfg.ServiceTime/2 + time.Duration(rng.Int63n(int64(cfg.ServiceTime))))
					if req.cr != nil {
						scale.srq.Release(req.cr) // WQE reposts once service is done
					}
					served.Inc()
					fab.Transfer(0, req.src, cfg.RespSize, func() { req.respond(true) })
				}
			})
		}
	})

	// Clients: event-driven closed loops, round-robin over nodes 1..N-1.
	for i := 0; i < cfg.Clients; i++ {
		client := i
		node := 1 + i%(cfg.Nodes-1)
		var call func()
		call = func() {
			start := c.Sim.Now()
			if start >= cfg.Duration {
				return
			}
			sp := h.tracer.Start("hammer.call", "client", tracing.SpanContext{}, start)
			respond := func(ok bool) {
				end := c.Sim.Now()
				if !ok {
					// Shed at the NameNode: count the busy response and retry
					// after a backoff (half fixed, half jitter — the S19 retry
					// shape). The retry is a fresh call with a span of its own.
					sp.SetAttr("status", "busy")
					sp.EndAt(end)
					scale.busy.Inc()
					c.Sim.At(end+cfg.BackoffTime/2+time.Duration(rng.Int63n(int64(cfg.BackoffTime))), call)
					return
				}
				sp.EndAt(end)
				calls.Inc()
				payload.Add(int64(cfg.ReqSize + cfg.RespSize))
				latency.Observe(int64(end - start))
				c.Sim.At(end+cfg.ThinkTime/2+time.Duration(rng.Int63n(int64(cfg.ThinkTime))), call)
			}
			fab.Transfer(node, 0, cfg.ReqSize, func() {
				var cr *ibverbs.SRQCredit
				if scale != nil {
					cr = scale.attach(client).cr
					if !scale.srq.TryConsume(cr) {
						// No WQE (or this session is over its credit): shed
						// with a small busy frame instead of queueing.
						scale.shed.Inc()
						fab.Transfer(0, node, busyRespBytes, func() { respond(false) })
						return
					}
				}
				nnq.TryPut(&hammerReq{src: node, respond: respond, cr: cr})
			})
		}
		// Stagger starts across the spread window.
		c.Sim.At(time.Duration(rng.Int63n(int64(cfg.StartSpread))), call)
	}

	end := c.RunUntil(cfg.Duration)
	h.record("hammer", end)
	res := HammerResult{End: end, Final: reg.Snapshot(end)}
	res.Calls = res.Final.Counters[HammerCallsMetric]
	res.Served = res.Final.Counters[HammerServedMetric]
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
	fmt.Fprintf(w, "hammer: nodes=%d clients=%d calls=%d served=%d virt=%v wall=%v p50=%v p99=%v\n",
		cfg.Nodes, cfg.Clients, res.Calls, res.Served,
		res.End, wall.Round(time.Millisecond),
		time.Duration(lat.Quantile(0.5)), time.Duration(lat.Quantile(0.99)))
	if cfg.ScaleOut {
		fmt.Fprintf(w, "scaleout: qps_peak=%d/%d srq_peak=%d/%d reg_bytes=%d/%d sessions=%d/%d evictions=%d shed=%d busy=%d\n",
			res.QPsPeak, cfg.QPMuxCap, res.SRQPostedPeak, cfg.SRQDepth,
			res.RegisteredBytes, res.BudgetBytes,
			res.Sessions, cfg.ConnCacheCap, res.Evictions, res.Shed, res.Busy)
	}
}
