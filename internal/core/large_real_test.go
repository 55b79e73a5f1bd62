package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/exec"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

const largeBody = 256 << 10

// startLargeServer serves put (a large BytesWritable in, a LongWritable out)
// and get (the reverse) over real TCP.
func startLargeServer(t *testing.T, env exec.Env, opts Options) (*Server, string) {
	t.Helper()
	block := &wire.BytesWritable{Value: make([]byte, largeBody)}
	srv := NewServer(transport.NewTCPNetwork(""), opts)
	srv.Register("test.Large", "put",
		func() wire.Writable { return &wire.BytesWritable{} },
		func(e exec.Env, param wire.Writable) (wire.Writable, error) {
			return &wire.LongWritable{Value: int64(len(param.(*wire.BytesWritable).Value))}, nil
		})
	srv.Register("test.Large", "get",
		func() wire.Writable { return &wire.LongWritable{} },
		func(e exec.Env, param wire.Writable) (wire.Writable, error) { return block, nil })
	if err := srv.Start(env, 0); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv, srv.Addr()
}

// TestRealLargeCallAllocBudget pins what a warmed 256 KB call allocates over
// loopback TCP in RPCoIB mode, in bytes, process-wide. Each direction's
// BytesWritable copies its body out of the receive buffer (256 KB, the
// Writable's own); the engine receives the frame into the connection's buffer
// and adds no more than 4 KB per call. With a receive allocation per frame
// this reads 512 KB.
func TestRealLargeCallAllocBudget(t *testing.T) {
	env := exec.NewRealEnv(1)
	opts := Options{Mode: ModeRPCoIB}
	_, addr := startLargeServer(t, env, opts)
	client := NewClient(transport.NewTCPNetwork(""), opts)
	defer client.Close()
	body := &wire.BytesWritable{Value: make([]byte, largeBody)}
	var size wire.LongWritable
	var reply wire.BytesWritable
	for _, tc := range []struct {
		method       string
		param, reply wire.Writable
	}{{"put", body, &size}, {"get", &size, &reply}} {
		call := func() {
			if err := client.Call(env, addr, "test.Large", tc.method, tc.param, tc.reply); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ { // connect, grow both receive buffers, settle pool history
			call()
		}
		// The median of five windows: a pool that registers one more buffer
		// (a handler acquiring before the responder released) is set-up, not
		// a per-call cost, and lands in one window at most.
		const windows, calls = 5, 50
		var perWindow [windows]float64
		for w := range perWindow {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				call()
			}
			runtime.ReadMemStats(&after)
			perWindow[w] = float64(after.TotalAlloc-before.TotalAlloc) / calls
		}
		sort.Float64s(perWindow[:])
		perCall := perWindow[windows/2]
		t.Logf("%s: %.0f bytes per call, %.0f beyond the Writable's body", tc.method, perCall, perCall-largeBody)
		if perCall > largeBody+4<<10 {
			t.Errorf("a warmed 256 KB %s allocates %.0f bytes: %.0f beyond the Writable's own copy, budget 4096",
				tc.method, perCall, perCall-largeBody)
		}
	}
	if len(reply.Value) != largeBody || size.Value != largeBody {
		t.Fatalf("get returned %d bytes, put reported %d, want %d", len(reply.Value), size.Value, largeBody)
	}
}

// getLadder is the benchmark's real_large_get cycle: 64 reply sizes,
// log-uniform from 64 KB to 1 MB.
func getLadder() []int64 {
	sizes := make([]int64, 64)
	for i := range sizes {
		sizes[i] = int64(math.Round(64 << 10 * math.Pow(16, float64(i)/63)))
	}
	return sizes
}

// TestRealLargeGetPoolSettles: two callers run the get ladder, shuffled, over
// real TCP. After 256 warm-up calls the server's registered pool is settled:
// 2000 more calls take every reply buffer from it, registering nothing. The
// history keeps one class for the kind (the ladder spans more than a factor
// of two, so it keeps the largest), and a reply's buffer is back in the pool
// before its caller can issue the next call, so two callers never need more
// than the two buffers warm-up registered.
func TestRealLargeGetPoolSettles(t *testing.T) {
	env := exec.NewRealEnv(1)
	block := make([]byte, 1<<20)
	spool := bufpool.NewShadowPool(bufpool.NewNativePool(0), bufpool.PolicyHistory)
	srv := NewServer(transport.NewTCPNetwork(""), Options{Mode: ModeRPCoIB, Pool: spool})
	srv.Register("test.Large", "get",
		func() wire.Writable { return &wire.LongWritable{} },
		func(e exec.Env, param wire.Writable) (wire.Writable, error) {
			return &wire.BytesWritable{Value: block[:param.(*wire.LongWritable).Value]}, nil
		})
	if err := srv.Start(env, 0); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	client := NewClient(transport.NewTCPNetwork(""), Options{Mode: ModeRPCoIB})
	defer client.Close()

	const callers = 2
	run := func(calls int) {
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cenv := exec.NewRealEnv(int64(g) + 2)
				rng := rand.New(rand.NewSource(int64(g) + 1))
				ladder := getLadder()
				var reply wire.BytesWritable
				for i := 0; i < calls; i++ {
					if i%len(ladder) == 0 {
						rng.Shuffle(len(ladder), func(a, b int) { ladder[a], ladder[b] = ladder[b], ladder[a] })
					}
					size := &wire.LongWritable{Value: ladder[i%len(ladder)]}
					if err := client.Call(cenv, srv.Addr(), "test.Large", "get", size, &reply); err != nil {
						t.Error(err)
						return
					}
					if int64(len(reply.Value)) != size.Value {
						t.Errorf("asked for %d bytes, got %d", size.Value, len(reply.Value))
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	run(256 / callers)
	warm := spool.Native().StatsSnapshot()
	run(2000 / callers)
	after := spool.Native().StatsSnapshot()
	if misses := after.Misses - warm.Misses; misses != 0 || after.PeakRegistered != warm.PeakRegistered {
		t.Errorf("after warm-up the server pool missed %d times and its peak went %d -> %d bytes",
			misses, warm.PeakRegistered, after.PeakRegistered)
	}
	t.Logf("server pool: %d bytes registered at peak, %d misses in warm-up", after.PeakRegistered, warm.Misses)
}

// settleGoroutines waits for the goroutine count to come back to base: every
// reader, handler, responder and connection thread a test started has exited.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines, %d before the test:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// truncatedFrame is the prefix of a 512 KB frame and the first half of its
// body: the receiver grows its buffer for the frame and the rest never comes.
func truncatedFrame() []byte {
	f := make([]byte, 4+256<<10)
	binary.BigEndian.PutUint32(f, 512<<10)
	return f
}

// TestTruncatedLargeFrameMidBody: a peer hangs up half-way through a 512 KB
// frame, once as a client of the server and once as the server of a client
// with four calls in flight. The server's reader exits and the server goes on
// serving; every future of the client resolves exactly once, with an error;
// neither end leaves a goroutine behind.
func TestTruncatedLargeFrameMidBody(t *testing.T) {
	base := runtime.NumGoroutine()
	env := exec.NewRealEnv(1)
	opts := Options{Mode: ModeRPCoIB, CallTimeout: 10 * time.Second}

	srv, addr := startEchoServer(t, env, opts)
	peer, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Write(truncatedFrame()); err != nil {
		t.Fatal(err)
	}
	peer.Close()
	client := NewClient(transport.NewTCPNetwork(""), opts)
	body := &wire.BytesWritable{Value: make([]byte, largeBody)}
	var reply wire.BytesWritable
	if err := client.Call(env, addr, "test.EchoProtocol", "echo", body, &reply); err != nil || len(reply.Value) != largeBody {
		t.Fatalf("call after a truncated request: %d bytes, err %v", len(reply.Value), err)
	}

	// A server that answers the first request with half a frame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		c.Read(make([]byte, 64))
		c.Write(truncatedFrame())
		c.Close()
	}()
	const inflight = 4
	small := &wire.BytesWritable{Value: make([]byte, 64)}
	var futures [inflight]*Future
	var replies [inflight]wire.BytesWritable
	for i := range futures {
		futures[i] = client.CallAsync(env, ln.Addr().String(), "test.EchoProtocol", "echo", small, &replies[i])
	}
	for i, f := range futures {
		err := f.Wait(env)
		if err == nil {
			t.Errorf("call %d succeeded on a connection that carried half a reply", i)
		}
		if again := f.Wait(env); again != err {
			t.Errorf("call %d: second Wait returned %v, first %v", i, again, err)
		}
	}
	if calls, resolved := client.Stats.Calls.Load(), client.Stats.Resolved.Load(); calls != resolved || calls != 1+inflight {
		t.Errorf("issued %d calls, resolved %d, want %d of each", calls, resolved, 1+inflight)
	}
	if n := PendingCallCount(client); n != 0 {
		t.Errorf("%d calls still pending", n)
	}
	client.Close()
	srv.Stop()
	settleGoroutines(t, base)
}

// TestStopWhileLargeCallsInFlight: the server stops while four callers keep
// 256 KB echoes in flight, so connections close with frames half received on
// grown buffers at both ends. Every call resolves exactly once and both ends'
// threads exit.
func TestStopWhileLargeCallsInFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	env := exec.NewRealEnv(1)
	opts := Options{Mode: ModeRPCoIB, CallTimeout: 10 * time.Second}
	srv, addr := startEchoServer(t, env, opts)
	client := NewClient(transport.NewTCPNetwork(""), opts)

	const callers, failuresEach = 4, 5
	var succeeded atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cenv := exec.NewRealEnv(int64(g) + 2)
			body := &wire.BytesWritable{Value: make([]byte, largeBody)}
			for failures := 0; failures < failuresEach; {
				var reply wire.BytesWritable
				f := client.CallAsync(cenv, addr, "test.EchoProtocol", "echo", body, &reply)
				err := f.Wait(cenv)
				if again := f.Wait(cenv); again != err {
					t.Errorf("second Wait returned %v, first %v", again, err)
				}
				switch {
				case err != nil:
					failures++
				case len(reply.Value) != largeBody:
					t.Errorf("echoed %d bytes of %d", len(reply.Value), largeBody)
				default:
					succeeded.Add(1)
				}
			}
		}()
	}
	for succeeded.Load() < 50 {
		time.Sleep(time.Millisecond)
	}
	srv.Stop()
	wg.Wait()

	calls, resolved := client.Stats.Calls.Load(), client.Stats.Resolved.Load()
	if want := succeeded.Load() + callers*failuresEach; calls != resolved || calls != want {
		t.Errorf("issued %d calls, resolved %d, callers saw %d outcomes", calls, resolved, want)
	}
	if n := PendingCallCount(client); n != 0 {
		t.Errorf("%d calls still pending", n)
	}
	client.Close()
	settleGoroutines(t, base)
}
