package main

import (
	"fmt"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/transport"
)

// sim_fig5 runs the real engine inside the legacy kernel in Fig 5(b)'s shape:
// Cluster B, a core.Server with 8 handlers on node 0, 16 closed-loop
// core.Client processes on nodes 1-8 echoing 512 B, once per transport, with
// metrics and tracing off. What is timed is the host: how long the simulator
// takes per simulated call. The simulated results themselves repeat exactly.

const (
	fig5Clients  = 16
	fig5Handlers = 8
	fig5Body     = 512
	fig5Addr     = "node0:9000"
	// fig5Warm is the virtual time given to connecting and settling before
	// slices are timed.
	fig5Warm = 10 * time.Millisecond
	// fidelitySlices is the fixed virtual prefix the exact simulated values
	// are taken over; every window runs at least this many slices, so those
	// values do not depend on how fast the host is.
	fidelitySlices = 12
)

type fig5Config struct {
	name string
	mode core.Mode
	kind perfmodel.LinkKind
}

var fig5Configs = []fig5Config{
	{"10gige", core.ModeBaseline, perfmodel.TenGigE},
	{"ipoib", core.ModeBaseline, perfmodel.IPoIB},
	{"rpcoib", core.ModeRPCoIB, perfmodel.NativeIB},
}

// fig5Run is one transport's cluster, advanced slice by slice.
type fig5Run struct {
	cfg  fig5Config
	cl   *cluster.Cluster
	srv  *core.Server
	at   time.Duration
	stop bool // set between slices; clients finish their call and exit

	// Written by the simulated client processes; the kernel runs one process
	// at a time, so plain fields are safe.
	calls  int64
	failed int64
	latSum time.Duration // virtual
	first  string        // first failure
}

func (r *fig5Run) netFor(node int) transport.Network {
	if r.cfg.mode == core.ModeRPCoIB {
		return r.cl.RPCoIBNet(node)
	}
	return r.cl.SocketNet(r.cfg.kind, node)
}

func newFig5Run(cfg fig5Config, seed int64, block []byte) *fig5Run {
	cc := cluster.ClusterB()
	cc.Seed = seed
	r := &fig5Run{cfg: cfg, cl: cluster.New(cc)}
	plain := seams{}
	r.cl.SpawnOn(0, "rpc-server", func(e exec.Env) {
		r.srv = core.NewServer(r.netFor(0), core.Options{Mode: cfg.mode, Costs: r.cl.Costs, Handlers: fig5Handlers})
		r.srv.Register(protocol, echoMethod(fig5Body), plain.newParam, plain.handler(serveEcho))
		if err := r.srv.Start(e, 9000); err != nil {
			panic(err)
		}
	})
	for i := 0; i < fig5Clients; i++ {
		i, node := i, 1+i%8
		r.cl.SpawnOn(node, fmt.Sprintf("client%d", i), func(e exec.Env) {
			sc := newScript(wSimFig5, seed, i, block)
			// A seeded stagger keeps the clients from starting in lockstep.
			e.Sleep(time.Millisecond + time.Duration(sc.rng.Int63n(int64(100*time.Microsecond))))
			client := core.NewClient(r.netFor(node), core.Options{Mode: cfg.mode, Costs: r.cl.Costs})
			defer client.Close()
			var param, reply msg
			for n := uint64(1); !r.stop; n++ {
				st := sc.fill(&param, uint64(i+1)<<40|n)
				t0 := e.Now()
				err := client.Call(e, fig5Addr, protocol, st.method, &param, &reply)
				r.latSum += e.Now() - t0
				if err == nil {
					err = checkReply(&param, &reply, st.echo)
				}
				if err != nil {
					r.failed++
					if r.first == "" {
						r.first = err.Error()
					}
				}
				r.calls++
			}
		})
	}
	return r
}

// advance runs d more virtual time and returns the host time it took.
func (r *fig5Run) advance(d time.Duration) time.Duration {
	r.at += d
	t0 := time.Now()
	r.cl.RunUntil(r.at)
	return time.Since(t0)
}

type fig5Fixture struct {
	slice  time.Duration // virtual time per timed slice
	traced bool
	runs   []*fig5Run
}

func newFig5Fixture(slice time.Duration, seed int64, traced bool) *fig5Fixture {
	f := &fig5Fixture{slice: slice, traced: traced}
	block := newBlock(seed)
	for _, cfg := range fig5Configs {
		f.runs = append(f.runs, newFig5Run(cfg, seed, block))
	}
	return f
}

// warm advances every transport through connection set-up. The fingerprint
// is every simulated number so far: two set-ups from one seed must agree on
// it exactly (replay identity).
func (f *fig5Fixture) warm() (string, error) {
	fp := ""
	for _, r := range f.runs {
		r.advance(fig5Warm)
		if r.failed > 0 {
			return "", fmt.Errorf("sim_fig5 %s: %d of %d warm-up calls failed: %s", r.cfg.name, r.failed, r.calls, r.first)
		}
		fp += fmt.Sprintf("%s:%d/%d ", r.cfg.name, r.calls, r.latSum)
	}
	return fp, nil
}

// close lets every client finish the call it is in, stops the servers and
// runs the kernels until their processes have exited, so a later set-up in
// this process does not inherit this one's goroutines and heap.
func (f *fig5Fixture) close() error {
	for _, r := range f.runs {
		r.stop = true
		r.advance(fig5Warm)
		r.srv.Stop()
		r.advance(fig5Warm)
		if live := r.cl.Sim.Live(); live != 0 {
			return fmt.Errorf("sim_fig5 %s: %d simulated processes still alive after close", r.cfg.name, live)
		}
	}
	return nil
}

// measure gives each transport a third of dur, in slices. The workload's rate
// is that of a run making equal numbers of calls on each transport, so a
// window's length does not change the mix: per-transport medians are combined
// harmonically, per-transport costs averaged.
func (f *fig5Fixture) measure(dur time.Duration) measurement {
	m := measurement{layers: map[string]float64{}}
	var secPerCall, cpu, allocs, bytes float64
	var sliceMS []float64
	allocsBy := map[core.Mode][]float64{}
	for _, r := range f.runs {
		calls0, lat0 := r.calls, r.latSum
		mem0, cpu0 := readMem(), cpuTime()
		var rates []float64
		var fidCalls int64
		var fidLat time.Duration
		start := time.Now()
		for n := 0; n < fidelitySlices || time.Since(start) < dur/time.Duration(len(f.runs)); n++ {
			before := r.calls
			t0 := time.Now()
			host := r.advance(f.slice)
			if dn := r.calls - before; dn > 0 {
				rates = append(rates, float64(dn)/host.Seconds())
			}
			sliceMS = append(sliceMS, float64(host.Microseconds())/1e3)
			if f.traced {
				m.spans = append(m.spans, sliceSpan(r.cfg.name, n, t0, host))
			}
			if n == fidelitySlices-1 {
				fidCalls, fidLat = r.calls-calls0, r.latSum-lat0
			}
		}
		mem1, cpu1 := readMem(), cpuTime()
		n := float64(r.calls - calls0)
		if n == 0 || len(rates) == 0 {
			m.failed++ // a transport that completes nothing has failed
			continue
		}
		rate := median(rates)
		secPerCall += 1 / rate
		cpu += float64((cpu1 - cpu0).Microseconds()) / n
		a, b := mem0.perCall(mem1, n)
		allocs += a
		bytes += b
		allocsBy[r.cfg.mode] = append(allocsBy[r.cfg.mode], a)
		m.attempted += r.calls - calls0
		m.failed += r.failed
		if r.failed > 0 && m.firstFailure == "" {
			m.firstFailure = r.cfg.name + ": " + r.first
		}
		m.layers["sim.host_us_per_call_"+r.cfg.name] = 1e6 / rate
		m.layers["perfmodel.sim_rtt_us_"+r.cfg.name] = float64(fidLat) / float64(fidCalls) / 1e3
		m.layers["perfmodel.sim_kcalls_per_s_"+r.cfg.name] = float64(fidCalls) / (fidelitySlices * f.slice).Seconds() / 1e3
		if r.cfg.mode == core.ModeRPCoIB {
			var eager, rdma, polls, unreg int64
			for _, d := range r.cl.IBNet().Devices() {
				st := d.StatsSnapshot()
				eager, rdma = eager+st.EagerSends, rdma+st.RDMASends
				polls, unreg = polls+st.CQPolls, unreg+st.UnregisteredTx
			}
			m.layers["ibverbs.eager_share"] = ratio(eager, eager+rdma)
			m.layers["ibverbs.cq_polls_per_call"] = ratio(polls, r.calls)
			m.layers["ibverbs.unregistered_tx"] = float64(unreg)
		}
	}
	k := float64(len(f.runs))
	m.callsPerS = k / secPerCall
	m.cpuUS, m.allocs, m.bytes = cpu/k, allocs/k, bytes/k
	m.layers["core.sim_allocs_per_call_baseline"] = median(allocsBy[core.ModeBaseline])
	m.layers["core.sim_allocs_per_call_rpcoib"] = median(allocsBy[core.ModeRPCoIB])
	m.layers["sim.slice_host_ms_p50"] = median(sliceMS)
	m.layers["sim.slice_host_ms_max"] = maxOf(sliceMS)
	return m
}
