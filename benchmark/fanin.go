package main

import (
	"fmt"
	"runtime"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/exec"
	"rpcoib/internal/metrics"
	"rpcoib/internal/netsim"
	"rpcoib/internal/perfmodel"
)

// sim_shard_fanin drives the sharded kernel with callbacks instead of
// processes: event-driven closed-loop clients on nodes 1..N-1 send 256 B
// through netsim.ShardFabric to handler processes on node 0 that Work about
// 2 us and answer 128 B; every node counts into its shard's registry. The
// NameNode here is the load generator's fixture (it is not bench.RunHammer,
// whose meaning the ROADMAP intends to change); what is under test is
// sim.ShardedSim, netsim.ShardFabric, cluster.ShardedCluster and per-shard
// metrics.

// faninScale sizes the fixture; tests shrink it.
type faninScale struct{ nodes, clients int }

const (
	faninHandlers = 64
	faninReq      = 256
	faninReply    = 128
	faninService  = 2 * time.Microsecond
	faninThink    = 10 * time.Millisecond // mean; clients start spread over one
	faninWarm     = faninThink            // the clients' start spread: timed slices begin in steady state

	faninCalls  = "bench_fanin_calls_total"
	faninBad    = "bench_fanin_bad_replies_total"
	faninServed = "bench_fanin_served_total"
	faninLat    = "bench_fanin_call_ns"
)

type faninRequest struct {
	c   *faninClient
	seq uint64
}

// faninClient is one event-driven closed loop. All its state lives on its
// node's shard.
type faninClient struct {
	run   *faninRun
	node  int
	seq   uint64
	start time.Duration
	calls *metrics.Counter
	bad   *metrics.Counter
	lat   *metrics.Histogram
	next  func() // c.issue, bound once instead of per call
}

func (c *faninClient) issue() {
	r := c.run
	if r.stop {
		return
	}
	c.start = r.sc.NowAt(c.node)
	c.seq++
	req := &faninRequest{c, c.seq}
	r.fab.Send(c.node, 0, faninReq, func() { r.nnq.TryPut(req) })
}

// reply runs on the client's shard when the answer's last byte arrives. The
// reply names the call it answers; anything else is a wrong reply.
func (c *faninClient) reply(seq uint64) {
	r := c.run
	end := r.sc.NowAt(c.node)
	if seq != c.seq {
		c.bad.Inc()
	}
	c.calls.Inc()
	c.lat.Observe(int64(end - c.start))
	think := faninThink/2 + time.Duration(r.sc.NodeRand(c.node).Int63n(int64(faninThink)))
	r.sc.LocalAt(c.node, end+think, c.next)
}

type faninRun struct {
	sc  *cluster.ShardedCluster
	fab *netsim.ShardFabric
	nnq exec.Queue
	at  time.Duration
	// stop is set between slices, when no shard is running; clients then let
	// their loops end.
	stop bool
}

// close ends the client loops, lets the calls in flight drain, releases the
// handler processes and the kernel's workers.
func (r *faninRun) close() {
	r.stop = true
	r.advance(3 * faninThink)
	r.nnq.Close()
	r.advance(time.Millisecond) // the handlers wake, see the queue closed and exit
	r.sc.Close()
}

func newFaninRun(scale faninScale, shards int, seed int64) *faninRun {
	cc := cluster.ClusterA(scale.nodes)
	cc.Seed = seed
	cc.Shards = shards
	r := &faninRun{sc: cluster.NewSharded(cc, perfmodel.Link(perfmodel.NativeIB).Latency)}
	r.fab = r.sc.NewFabric(perfmodel.NativeIB)
	// nnq is created in the first window and read by fabric deliveries that
	// cannot arrive before one link latency, all on node 0's shard.
	r.sc.SpawnOn(0, "namenode", func(e exec.Env) {
		r.nnq = e.NewQueue(0)
		served := r.sc.Registry(0).Counter(faninServed)
		for h := 0; h < faninHandlers; h++ {
			e.Spawn(fmt.Sprintf("handler-%d", h), func(he exec.Env) {
				for {
					v, ok := r.nnq.Get(he)
					if !ok {
						return
					}
					req := v.(*faninRequest)
					he.Work(faninService/2 + time.Duration(he.Rand().Int63n(int64(faninService))))
					served.Inc()
					r.fab.Send(0, req.c.node, faninReply, func() { req.c.reply(req.seq) })
				}
			})
		}
	})
	for i := 0; i < scale.clients; i++ {
		node := 1 + i%(scale.nodes-1)
		reg := r.sc.Registry(node)
		c := &faninClient{run: r, node: node,
			calls: reg.Counter(faninCalls), bad: reg.Counter(faninBad), lat: reg.Histogram(faninLat, nil)}
		c.next = c.issue
		r.sc.LocalAt(node, time.Duration(r.sc.NodeRand(node).Int63n(int64(faninThink))), c.next)
	}
	return r
}

// faninCounts is the merged registry view at a barrier.
type faninCounts struct {
	calls, bad, served int64
	latSum             int64 // virtual ns
}

func (r *faninRun) counts() faninCounts {
	s := r.sc.Snapshot(r.at)
	return faninCounts{s.Counters[faninCalls], s.Counters[faninBad], s.Counters[faninServed], s.Histograms[faninLat].Sum}
}

func (r *faninRun) advance(d time.Duration) time.Duration {
	r.at += d
	t0 := time.Now()
	r.sc.RunUntil(r.at)
	return time.Since(t0)
}

type faninFixture struct {
	scale  faninScale
	slice  time.Duration // virtual time per timed slice
	seed   int64
	traced bool
	run    *faninRun
}

func newFaninFixture(scale faninScale, slice time.Duration, seed int64, traced bool) *faninFixture {
	return &faninFixture{scale: scale, slice: slice, seed: seed, traced: traced,
		run: newFaninRun(scale, runtime.NumCPU(), seed)}
}

func (f *faninFixture) warm() (string, error) {
	f.run.advance(faninWarm)
	c := f.run.counts()
	if c.bad > 0 {
		return "", fmt.Errorf("sim_shard_fanin: %d wrong replies in warm-up", c.bad)
	}
	return fmt.Sprintf("%d/%d/%d/%d", c.calls, c.served, c.latSum, f.run.sc.Kernel.Barriers()), nil
}

func (f *faninFixture) close() error {
	f.run.close()
	return nil
}

// slices advances r for at least dur of host time and at least fidelitySlices
// slices, returning each slice's rate in simulated calls per host second.
func (f *faninFixture) slices(r *faninRun, dur time.Duration, each func(n int, t0 time.Time, host time.Duration)) (rates []float64) {
	prev := r.counts().calls
	start := time.Now()
	for n := 0; n < fidelitySlices || time.Since(start) < dur; n++ {
		t0 := time.Now()
		host := r.advance(f.slice)
		now := r.counts().calls
		if now > prev {
			rates = append(rates, float64(now-prev)/host.Seconds())
		}
		prev = now
		if each != nil {
			each(n, t0, host)
		}
	}
	return rates
}

func (f *faninFixture) measure(dur time.Duration) measurement {
	m := measurement{layers: map[string]float64{}}
	r := f.run
	c0 := r.counts()
	barriers0, merged0, delivered0 := r.sc.Kernel.Barriers(), r.sc.Kernel.MergedMessages(), r.fab.Delivered()
	mem0, cpu0 := readMem(), cpuTime()
	var sliceMS []float64
	var fid faninCounts
	rates := f.slices(r, dur, func(n int, t0 time.Time, host time.Duration) {
		sliceMS = append(sliceMS, float64(host.Microseconds())/1e3)
		if f.traced {
			m.spans = append(m.spans, sliceSpan("sharded", n, t0, host))
		}
		if n == fidelitySlices-1 {
			fid = r.counts()
		}
	})
	mem1, cpu1 := readMem(), cpuTime()
	c1 := r.counts()
	n := float64(c1.calls - c0.calls)
	m.attempted, m.failed = c1.calls-c0.calls, c1.bad
	// Every served request is a completed call or one of the calls in flight.
	if inflight := c1.served - c1.calls; inflight < 0 || inflight > int64(f.scale.clients) {
		m.failed++
		m.firstFailure = fmt.Sprintf("served %d but completed %d with %d clients", c1.served, c1.calls, f.scale.clients)
	}
	if n == 0 || len(rates) == 0 {
		m.failed++
		return m
	}
	m.callsPerS = median(rates)
	m.cpuUS = float64((cpu1 - cpu0).Microseconds()) / n
	m.allocs, m.bytes = mem0.perCall(mem1, n)

	fidCalls := fid.calls - c0.calls
	m.layers["perfmodel.fanin_rtt_us"] = ratio(fid.latSum-c0.latSum, fidCalls) / 1e3
	m.layers["perfmodel.fanin_kcalls_per_s"] = float64(fidCalls) / (fidelitySlices * f.slice).Seconds() / 1e3
	m.layers["sim.shard_barriers_per_call"] = float64(r.sc.Kernel.Barriers()-barriers0) / n
	m.layers["sim.shard_merged_msgs_per_call"] = float64(r.sc.Kernel.MergedMessages()-merged0) / n
	m.layers["netsim.shard_delivered_per_call"] = float64(r.fab.Delivered()-delivered0) / n
	m.layers["sim.slice_host_ms_p50"] = median(sliceMS)
	m.layers["sim.slice_host_ms_max"] = maxOf(sliceMS)
	if f.traced {
		// The same fixture on one shard, for a short stretch: how much the
		// sharding itself buys on this host.
		one := newFaninRun(f.scale, 1, f.seed)
		one.advance(faninWarm)
		if single := median(f.slices(one, 0, nil)); single > 0 {
			m.layers["sim.shard_speedup"] = m.callsPerS / single
		}
		one.close()
	}
	return m
}
