package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/ibverbs"
	"rpcoib/internal/metrics"
	"rpcoib/internal/netsim"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/sim"
	"rpcoib/internal/tracing"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// The ladder: one isolated loop per layer, each run for at least d, inputs
// taken from the workloads' size mixes. These are the floors under the
// end-to-end numbers: when a workload moves, the rung that moved with it
// names the layer.

// timed runs batch(n) over and over for at least d. It returns the median
// time per operation over the batches (in ns) and the mean mallocs per
// operation.
func timed(d time.Duration, n int, batch func(n int)) (ns, allocs float64) {
	batch(n) // warm: first-use growth is not the steady state
	var per []float64
	ops := 0
	mem0 := readMem()
	for start := time.Now(); time.Since(start) < d || len(per) < 3; {
		t0 := time.Now()
		batch(n)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
		ops += n
	}
	mem1 := readMem()
	return median(per), float64(mem1.mallocs-mem0.mallocs) / float64(ops)
}

// sink keeps results alive so the compiler cannot drop the measured work.
var sink any

func runLadder(d time.Duration, seed int64, out map[string]float64) {
	block := newBlock(seed)
	small := ladderMsgs(cycleFor(wRealSmall), block)
	large := ladderMsgs(cycleFor(wRealLargePut), block)

	// wire: Algorithm-1 encode into a fresh 32-byte DataOutputBuffer, decode.
	encode := func(msgs []*msg) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				b := wire.NewDataOutputBuffer()
				msgs[i%len(msgs)].Write(wire.NewDataOutput(b))
				sink = b
			}
		}
	}
	out["wire.alg1_encode_ns_small"], out["wire.alg1_encode_allocs"] = timed(d, 2048, encode(small))
	out["wire.alg1_encode_ns_large"], _ = timed(d, 64, encode(large))
	decode := func(msgs []*msg) func(int) {
		frames := make([][]byte, len(msgs))
		for i, m := range msgs {
			b := wire.NewDataOutputBuffer()
			m.Write(wire.NewDataOutput(b))
			frames[i] = b.Data()
		}
		var into msg
		return func(n int) {
			for i := 0; i < n; i++ {
				into.ReadFields(wire.NewDataInput(frames[i%len(frames)]))
			}
		}
	}
	out["wire.decode_ns_small"], _ = timed(d, 2048, decode(small))
	out["wire.decode_ns_large"], _ = timed(d, 64, decode(large))

	// core: serialise through RDMAOutputStream into pooled buffers. The
	// small mix has one key per size, as the workload has one method per
	// size; the large mix shares one key, so history mispredicts.
	stream := func(msgs []*msg, key func(int) string) func(int) {
		pool := bufpool.NewShadowPool(bufpool.NewNativePool(0), bufpool.PolicyHistory)
		return func(n int) {
			for i := 0; i < n; i++ {
				s := core.NewRDMAOutputStream(pool, key(i%len(msgs)))
				msgs[i%len(msgs)].Write(wire.NewDataOutput(s))
				s.Release()
			}
		}
	}
	smallKeys := make([]string, len(small))
	for i, m := range small {
		smallKeys[i] = echoMethod(len(m.body))
	}
	out["core.rdma_stream_ns_small"], out["core.rdma_stream_allocs"] = timed(d, 2048, stream(small, func(i int) string { return smallKeys[i] }))
	out["core.rdma_stream_ns_large"], _ = timed(d, 64, stream(large, func(int) string { return "put" }))

	pool := bufpool.NewShadowPool(bufpool.NewNativePool(0), bufpool.PolicyHistory)
	out["bufpool.acquire_release_ns"], out["bufpool.acquire_release_allocs"] = timed(d, 4096, func(n int) {
		for i := 0; i < n; i++ {
			pool.Release("k", pool.Acquire("k"), 600)
		}
	})

	env := exec.NewRealEnv(seed)
	q := env.NewQueue(0)
	out["exec.queue_putget_ns"], _ = timed(d, 4096, func(n int) {
		for i := 0; i < n; i++ {
			q.Put(env, i)
			sink, _ = q.Get(env)
		}
	})
	_, out["exec.newqueue_allocs"] = timed(d, 4096, func(n int) {
		for i := 0; i < n; i++ {
			sink = env.NewQueue(1)
		}
	})

	ladderTCP(d, env, out)
	ladderVerbs(d, out)
	ladderKernels(d, seed, out)
	ladderObservation(d, out)
}

// ladderMsgs builds one msg per step of a cycle, bodies cut from block.
func ladderMsgs(steps []step, block []byte) []*msg {
	msgs := make([]*msg, len(steps))
	for i, st := range steps {
		size := st.req
		body := block[i*64 : i*64+size]
		msgs[i] = &msg{seq: uint64(i + 1), want: uint32(size), sum: checksum(body), body: body}
	}
	return msgs
}

// ladderTCP echoes over a bare transport connection with no engine: the floor
// under call latency, and the share of bytes_per_call that Recv's make owns.
func ladderTCP(d time.Duration, env exec.Env, out map[string]float64) {
	nw := transport.NewTCPNetwork("")
	ln, err := nw.Listen(env, 0)
	if err != nil {
		panic(fmt.Sprintf("ladder: listen: %v", err))
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := ln.Accept(env)
		if err != nil {
			return
		}
		defer c.Close()
		for {
			data, release, err := c.Recv(env)
			if err != nil {
				return
			}
			err = c.Send(env, data)
			release()
			if err != nil {
				return
			}
		}
	}()
	c, err := nw.Dial(env, ln.Addr())
	if err != nil {
		panic(fmt.Sprintf("ladder: dial: %v", err))
	}
	echo := func(payload []byte) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if err := c.Send(env, payload); err != nil {
					panic(fmt.Sprintf("ladder: send: %v", err))
				}
				_, release, err := c.Recv(env)
				if err != nil {
					panic(fmt.Sprintf("ladder: recv: %v", err))
				}
				release()
			}
		}
	}
	ns, allocs := timed(d, 256, echo(make([]byte, 512)))
	out["transport.tcp_roundtrip_us"], out["transport.tcp_roundtrip_allocs"] = ns/1e3, allocs
	const big = 256 << 10
	ns, _ = timed(d, 16, echo(make([]byte, big)))
	out["transport.tcp_large_mb_per_s"] = big / ns * 1e3 // bytes/ns is GB/s
	c.Close()
	<-served
}

// ladderVerbs times the simulated verbs layer and the scale-out accounting
// objects on the host clock.
func ladderVerbs(d time.Duration, out map[string]float64) {
	out["ibverbs.send_recv_ns"], _ = timed(d, 1024, func(n int) {
		s := sim.New(1)
		net := ibverbs.NewNetwork(netsim.NewFabric(s, perfmodel.Link(perfmodel.NativeIB), nil), perfmodel.DefaultCPU(), 0)
		ln, err := net.Listen(0, 18515)
		if err != nil {
			panic(err)
		}
		var server *ibverbs.EndPoint
		s.Spawn("accept", func(p *sim.Proc) {
			if server, err = ln.Accept(p); err != nil {
				panic(err)
			}
		})
		s.Spawn("driver", func(p *sim.Proc) {
			client, err := net.Dial(p, 1, ln.Addr())
			if err != nil {
				panic(err)
			}
			p.Yield() // let the accept process record its endpoint
			pool := net.Device(1).RecvPool()
			b := pool.Get(fig5Body)
			defer pool.Put(b)
			for i := 0; i < n; i++ {
				if err := client.Send(p, b, fig5Body); err != nil {
					panic(err)
				}
				_, release, err := server.Recv(p)
				if err != nil {
					panic(err)
				}
				release()
			}
		})
		s.Run()
	})

	srq := ibverbs.NewSRQ(256, 4, 512, nil)
	credit := srq.Attach()
	out["ibverbs.srq_consume_release_ns"], _ = timed(d, 4096, func(n int) {
		for i := 0; i < n; i++ {
			if srq.TryConsume(credit) {
				srq.Release(credit)
			}
		}
	})
	mux := ibverbs.NewQPMux(64)
	out["ibverbs.qpmux_attach_detach_ns"], _ = timed(d, 4096, func(n int) {
		for i := 0; i < n; i++ {
			qp, _ := mux.Attach()
			mux.Detach(qp)
		}
	})

	// An LRU at capacity under churn: keys drawn from 1.25x the capacity, so
	// most lookups hit and the rest evict.
	const capacity = 1024
	cache := core.NewConnCache(capacity)
	out["core.conncache_get_ns"], _ = timed(d, 4096, func(n int) {
		for i := 0; i < n; i++ {
			key := core.RuntimeKey{Node: i * 7919 % (capacity * 5 / 4), Config: "ladder"}
			sink, _ = cache.GetOrCreate(key, func() any { return key.Node })
		}
	})
}

// ladderKernels times the two event kernels, the two fabrics and cluster
// construction.
func ladderKernels(d time.Duration, seed int64, out map[string]float64) {
	out["sim.event_ns"], _ = timed(d, 4096, func(n int) {
		s := sim.New(seed)
		fired := 0
		for i := 0; i < n; i++ {
			s.After(time.Duration(i), func() { fired++ })
		}
		s.Run()
		sink = fired
	})
	// Two processes ping-pong through queues: each round trip is two
	// goroutine hand-offs through the kernel.
	ns, _ := timed(d, 1024, func(n int) {
		s := sim.New(seed)
		ping, pong := s.NewQueue(0), s.NewQueue(0)
		s.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				ping.Put(p, i)
				pong.Get(p)
			}
			ping.Close()
		})
		s.Spawn("pong", func(p *sim.Proc) {
			for {
				v, ok := ping.Get(p)
				if !ok {
					return
				}
				pong.Put(p, v)
			}
		})
		s.Run()
	})
	out["sim.handoff_ns"] = ns / 2

	shards := runtime.NumCPU()
	const look = time.Microsecond
	var barriers int64
	ns, _ = timed(d, 2048, func(n int) {
		ss := sim.NewSharded(seed, shards, look)
		for i := 0; i < shards; i++ {
			k := ss.Shard(i).Sim()
			var tick func()
			tick = func() { k.After(look, tick) }
			k.After(0, tick)
		}
		ss.RunUntil(time.Duration(n) * look)
		barriers = ss.Barriers()
		ss.Close()
	})
	out["sim.sharded_barrier_ns"] = ns * 2048 / float64(barriers)

	out["netsim.transfer_ns"], _ = timed(d, 4096, func(n int) {
		s := sim.New(seed)
		f := netsim.NewFabric(s, perfmodel.Link(perfmodel.NativeIB), nil)
		got := 0
		for i := 0; i < n; i++ {
			f.Transfer(1+i%8, 0, faninReq, func() { got++ })
		}
		s.Run()
		sink = got
	})
	const senders = 15
	out["netsim.shard_send_ns"], _ = timed(d, 256*senders, func(n int) {
		cc := cluster.ClusterA(senders + 1)
		cc.Seed, cc.Shards = seed, shards
		sc := cluster.NewSharded(cc, perfmodel.Link(perfmodel.NativeIB).Latency)
		fab := sc.NewFabric(perfmodel.NativeIB)
		for node := 1; node <= senders; node++ {
			node := node
			sc.LocalAt(node, 0, func() {
				for i := 0; i < n/senders; i++ {
					fab.Send(node, 0, faninReq, func() {})
				}
			})
		}
		sc.Run()
		sc.Close()
	})

	ns, _ = timed(d, 4, func(n int) {
		for i := 0; i < n; i++ {
			sink = cluster.New(cluster.ClusterB())
		}
	})
	out["cluster.new_ms"] = ns / 1e6
	ns, _ = timed(d, 2, func(n int) {
		for i := 0; i < n; i++ {
			cc := cluster.ClusterA(fullScale.fanin.nodes)
			cc.Shards = shards
			cluster.NewSharded(cc, perfmodel.Link(perfmodel.NativeIB).Latency).Close()
		}
	})
	out["cluster.new_sharded_ms"] = ns / 1e6
}

// ladderObservation times one hit of each instrument the engine's hot path
// touches when a registry or tracer is attached.
func ladderObservation(d time.Duration, out map[string]float64) {
	reg := metrics.New()
	held := reg.Counter("bench_ladder_held_total")
	out["metrics.counter_inc_ns"], _ = timed(d, 8192, func(n int) {
		for i := 0; i < n; i++ {
			held.Inc()
		}
	})
	// What core does per call today: build the labelled name, look it up.
	out["metrics.labelled_lookup_ns"], _ = timed(d, 4096, func(n int) {
		for i := 0; i < n; i++ {
			reg.Counter(metrics.Labels("bench_ladder_calls_total", "protocol", protocol, "method", "echo512")).Inc()
		}
	})
	h := reg.Histogram("bench_ladder_ns", nil)
	out["metrics.histogram_observe_ns"], _ = timed(d, 8192, func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(int64(i) * 37)
		}
	})
	// A registry about the size the engine's own families make.
	for i := 0; i < 100; i++ {
		reg.Counter(fmt.Sprintf("bench_ladder_c%d_total", i)).Inc()
	}
	for i := 0; i < 24; i++ {
		reg.Gauge(fmt.Sprintf("bench_ladder_g%d", i)).Set(int64(i))
		reg.Histogram(fmt.Sprintf("bench_ladder_h%d_ns", i), nil).Observe(int64(i))
	}
	ns, _ := timed(d, 64, func(n int) {
		for i := 0; i < n; i++ {
			sink = reg.Snapshot(0)
		}
	})
	out["metrics.snapshot_ms"] = ns / 1e6

	spanLoop := func(tr *tracing.Tracer) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				sp := tr.Start("client.call", "client", tracing.SpanContext{}, 0)
				tr.Child(sp, "client.serialize", "client", 0, 1)
				sp.EndAt(2)
			}
		}
	}
	discard := func() *tracing.Sink { return tracing.NewSink(io.Discard, tracing.SinkOptions{}) }
	out["tracing.span_ns"], out["tracing.span_allocs"] = timed(d, 1024, spanLoop(tracing.New(1, discard(), tracing.Sampler{})))
	out["tracing.span_unsampled_ns"], _ = timed(d, 8192,
		spanLoop(tracing.New(1, discard(), tracing.Sampler{Mode: tracing.SampleEveryN, N: 1 << 30})))
}
