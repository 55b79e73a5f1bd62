package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/metrics"
	"rpcoib/internal/tracing"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// realRig is one real-mode deployment: a core.Server and a core.Client in
// this process, RPCoIB mode, joined by one connection over host loopback TCP
// (not a real link), driven by closed-loop callers that each wait for their
// reply before sending the next call.
type realRig struct {
	workload string
	seams    seams
	srv      *core.Server
	cli      *core.Client
	cpool    *bufpool.ShadowPool
	spool    *bufpool.ShadowPool
	callers  []*caller
	failures failureLog
}

type realOpts struct {
	workload string
	seed     int64
	observed bool              // attach a metrics registry and a 1-in-64 tracer
	rec      *recorder         // non-nil: wrap every seam with the decorators
	net      transport.Network // nil: loopback TCP (tests tap the wire here)
	callers  int               // 0: callers()
}

// warmCycles is how many script cycles each caller runs before the window:
// enough to connect, fill the pool's free lists and settle its size history.
func warmCycles(workload string) int {
	if workload == wRealLargePut || workload == wRealLargeGet {
		return 2
	}
	return 32
}

func newRealRig(o realOpts) (*realRig, error) {
	r := &realRig{workload: o.workload, seams: seams{o.rec}}
	net := o.net
	if net == nil {
		net = transport.NewTCPNetwork("")
	}
	net = r.seams.network(net)
	env := r.seams.env(exec.NewRealEnv(o.seed))

	r.cpool = bufpool.NewShadowPool(bufpool.NewNativePool(0), bufpool.PolicyHistory)
	r.spool = bufpool.NewShadowPool(bufpool.NewNativePool(0), bufpool.PolicyHistory)
	copts := core.Options{Mode: core.ModeRPCoIB, Pool: r.cpool}
	sopts := core.Options{Mode: core.ModeRPCoIB, Pool: r.spool}
	if o.observed {
		reg := metrics.New()
		tr := tracing.New(o.seed, tracing.NewSink(io.Discard, tracing.SinkOptions{}),
			tracing.Sampler{Mode: tracing.SampleEveryN, N: 64})
		tr.Instrument(reg)
		copts.Metrics, copts.Trace = reg, tr
		sopts.Metrics, sopts.Trace = reg, tr
	}

	block := newBlock(o.seed)
	r.srv = core.NewServer(net, sopts)
	for _, s := range smallSizes {
		r.srv.Register(protocol, echoMethod(s), r.seams.newParam, r.seams.handler(serveEcho))
	}
	r.srv.Register(protocol, "put", r.seams.newParam, r.seams.handler(servePut))
	r.srv.Register(protocol, "get", r.seams.newParam, r.seams.handler(serveGet(block)))
	if err := r.srv.Start(env, 0); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	r.cli = core.NewClient(net, copts)

	n := o.callers
	if n == 0 {
		n = callers()
	}
	for i := 0; i < n; i++ {
		c := &caller{
			rig:    r,
			id:     uint64(i + 1),
			env:    r.seams.env(exec.NewRealEnv(o.seed + int64(i) + 1)),
			script: newScript(o.workload, o.seed, i, block),
			lat:    map[string]*hist{},
		}
		c.paramW = r.seams.writable(&c.param, false)
		c.replyW = r.seams.writable(&c.reply, false)
		for _, st := range c.script.cycle {
			if c.lat[st.method] == nil {
				c.lat[st.method] = &hist{}
			}
		}
		r.callers = append(r.callers, c)
	}
	return r, nil
}

func serveEcho(in *msg) (*msg, error) {
	if checksum(in.body) != in.sum {
		return nil, errors.New("request body fails its checksum")
	}
	return in, nil
}

func servePut(in *msg) (*msg, error) {
	if checksum(in.body) != in.sum {
		return nil, errors.New("request body fails its checksum")
	}
	return &msg{seq: in.seq}, nil
}

// serveGet answers with want bytes cut from the shared block at an offset the
// sequence number picks.
func serveGet(block []byte) func(*msg) (*msg, error) {
	return func(in *msg) (*msg, error) {
		want := int(in.want)
		if want > len(block)/2 {
			return nil, fmt.Errorf("get of %d bytes exceeds the block", want)
		}
		off := int(in.seq * 2654435761 % uint64(len(block)-want))
		body := block[off : off+want]
		return &msg{seq: in.seq, body: body, sum: checksum(body)}, nil
	}
}

// failureLog keeps the first few failures for the report.
type failureLog struct {
	mu    sync.Mutex
	first []string
}

func (f *failureLog) add(err error) {
	f.mu.Lock()
	if len(f.first) < 5 {
		f.first = append(f.first, err.Error())
	}
	f.mu.Unlock()
}

// caller is one closed-loop load-generator thread.
type caller struct {
	rig    *realRig
	id     uint64
	env    exec.Env
	script *script
	n      uint64

	param, reply   msg
	paramW, replyW wire.Writable // param and reply as the engine sees them

	lat map[string]*hist // per method, whole window

	// done and failed are read by the coordinator while the caller runs.
	done   atomic.Int64
	failed atomic.Int64
	_      [64]byte // keep two callers' counters off one cache line
}

// call issues the next scripted call and checks its reply.
func (c *caller) call() {
	c.n++
	seq := c.id<<40 | c.n
	st := c.script.fill(&c.param, seq)
	rec := c.rig.seams.rec
	if rec != nil {
		c.env.(*tracedEnv).seq = seq
	}
	t0 := time.Now()
	err := c.rig.cli.Call(c.env, c.rig.srv.Addr(), protocol, st.method, c.paramW, c.replyW)
	d := time.Since(t0)
	if rec != nil {
		end := rec.now()
		rec.add(spCall, false, seq, end-int64(d), end)
	}
	if err == nil {
		err = checkReply(&c.param, &c.reply, st.echo)
	}
	if err != nil {
		c.failed.Add(1)
		c.rig.failures.add(err)
	}
	c.lat[st.method].add(d)
	c.done.Add(1)
}

// window is what one measured stretch of calls yields.
type window struct {
	calls     int64
	failed    int64
	callsPerS float64 // median segment
	cpuUS     float64 // median segment, user+sys per call
	allocs    float64 // whole window, whole process, per call
	bytes     float64
	lat       map[string]*hist // merged over callers
	layers    totals           // decorator sums over the window (traced rigs)
	pools     poolCounts       // both injected pools' counters over the window
}

func (r *realRig) done() (calls, failed int64) {
	for _, c := range r.callers {
		calls += c.done.Load()
		failed += c.failed.Load()
	}
	return
}

// segmentOf cuts a window into the stretches whose medians are reported: one
// second each, or a quarter of a short (test) window.
func segmentOf(dur time.Duration) time.Duration {
	if dur >= 4*time.Second {
		return time.Second
	}
	return dur / 4
}

// run drives every caller either for perCaller calls each (warm-up) or for
// dur (a measured window, cut into segments).
func (r *realRig) run(perCaller int, dur time.Duration) window {
	for _, c := range r.callers {
		for _, h := range c.lat {
			*h = hist{}
		}
	}
	var lay0 totals
	if rec := r.seams.rec; rec != nil {
		lay0 = rec.totals()
		rec.n.Store(0) // keep this stretch's spans, not the previous one's
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	calls0, failed0 := r.done()
	pools0 := r.poolCounts()
	mem0 := readMem()
	prev, prevCalls := sampleUsage(), calls0
	for _, c := range r.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for i := 0; perCaller == 0 || i < perCaller; i++ {
				if stop.Load() {
					return
				}
				c.call()
			}
		}(c)
	}
	var rates, cpus []float64
	if perCaller == 0 {
		seg := segmentOf(dur)
		for end := prev.at.Add(dur); time.Until(end) > seg/2; {
			time.Sleep(seg)
			u := sampleUsage()
			n, _ := r.done()
			if dn := n - prevCalls; dn > 0 {
				rates = append(rates, float64(dn)/u.at.Sub(prev.at).Seconds())
				cpus = append(cpus, float64((u.cpu-prev.cpu).Microseconds())/float64(dn))
			}
			prev, prevCalls = u, n
		}
		stop.Store(true)
	}
	wg.Wait()
	mem1 := readMem()
	calls1, failed1 := r.done()

	w := window{calls: calls1 - calls0, failed: failed1 - failed0, lat: map[string]*hist{}}
	w.callsPerS, w.cpuUS = median(rates), median(cpus)
	if w.calls > 0 {
		w.allocs, w.bytes = mem0.perCall(mem1, float64(w.calls))
	}
	for _, c := range r.callers {
		for m, h := range c.lat {
			if w.lat[m] == nil {
				w.lat[m] = &hist{}
			}
			w.lat[m].merge(h)
		}
	}
	if r.seams.rec != nil {
		w.layers = r.seams.rec.totals().sub(lay0)
	}
	w.pools = r.poolCounts().sub(pools0)
	return w
}

// warm connects and settles the pool history. Its cost is set-up, not window.
func (r *realRig) warm() error {
	w := r.run(warmCycles(r.workload)*cycleLen, 0)
	if w.failed > 0 {
		return fmt.Errorf("%d of %d warm-up calls failed: %v", w.failed, w.calls, r.failures.first)
	}
	return nil
}

// close stops both ends and checks that the three independent counts of calls
// agree: the client's, the server's and the load generator's own.
func (r *realRig) close() error {
	gen, _ := r.done()
	issued, handled := r.cli.Stats.Calls.Load(), r.srv.Stats.CallsHandled.Load()
	r.cli.Close()
	r.srv.Stop()
	if issued != gen || handled != gen {
		return fmt.Errorf("call counts disagree: generator %d, client issued %d, server handled %d", gen, issued, handled)
	}
	return nil
}

// poolCounts are the public counters of the two injected pools, summed.
type poolCounts struct {
	acquires, firstFit, regets, gets, hits int64
}

func (r *realRig) poolCounts() poolCounts {
	var p poolCounts
	for _, sp := range []*bufpool.ShadowPool{r.cpool, r.spool} {
		s, n := sp.StatsSnapshot(), sp.Native().StatsSnapshot()
		p.acquires += s.Acquires
		p.firstFit += s.FirstFit
		p.regets += s.Regets
		p.gets += n.Gets
		p.hits += n.Hits
	}
	return p
}

func (p poolCounts) sub(o poolCounts) poolCounts {
	return poolCounts{p.acquires - o.acquires, p.firstFit - o.firstFit, p.regets - o.regets, p.gets - o.gets, p.hits - o.hits}
}

// boundaryLayers reports the counters read at the engine's boundary: the
// window's pool traffic, and the lifetime error counts of both ends.
func (r *realRig) boundaryLayers(w window, out map[string]float64) {
	out["bufpool.first_fit_share"] = ratio(w.pools.firstFit, w.pools.acquires)
	out["bufpool.regets_per_call"] = ratio(w.pools.regets, w.calls)
	out["bufpool.native_hit_share"] = ratio(w.pools.hits, w.pools.gets)
	peak := r.cpool.Native().StatsSnapshot().PeakRegistered + r.spool.Native().StatsSnapshot().PeakRegistered
	out["bufpool.peak_registered_mb"] = float64(peak) / 1e6
	out["core.client_errors"] = float64(r.cli.Stats.Errors.Load())
	out["core.server_shed"] = float64(r.srv.Stats.CallsShed.Load())
	out["core.server_expired"] = float64(r.srv.Stats.CallsExpired.Load())
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
