package core

import (
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpcoib/internal/exec"
	"rpcoib/internal/metrics"
	"rpcoib/internal/tracing"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

// TestServerAddrAllocatesNothing: callers pass srv.Addr() to every Call.
func TestServerAddrAllocatesNothing(t *testing.T) {
	srv, _ := startEchoServer(t, exec.NewRealEnv(1), Options{})
	var sink string
	if allocs := testing.AllocsPerRun(100, func() { sink = srv.Addr() }); allocs != 0 {
		t.Errorf("Server.Addr allocates %.0f times per call", allocs)
	}
	_ = sink
}

// allocsPerCall is the process-wide allocation count per warmed 512 B echo
// over loopback TCP, param and reply reused: everything both engines do for
// one call, on every thread.
func allocsPerCall(t *testing.T, opts Options) float64 {
	t.Helper()
	env := exec.NewRealEnv(1)
	_, addr := startEchoServer(t, env, opts)
	client := NewClient(transport.NewTCPNetwork(""), opts)
	defer client.Close()
	param := &wire.BytesWritable{Value: make([]byte, 512)}
	var reply wire.BytesWritable
	call := func() {
		if err := client.Call(env, addr, "test.EchoProtocol", "echo", param, &reply); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // connect, resolve the kind, settle pool history
		call()
	}
	const calls = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / calls
}

// TestRealCallAllocBudget pins what one real-mode call allocates. In RPCoIB
// mode three allocations are the Writables' own (the server's fresh param,
// its body, the reply's body: BytesWritable copies out of the receive
// buffer) and the engine adds none; the budget leaves room for the runtime's
// background allocations, not for a per-call record. Observation (a registry
// and a tracer that samples nothing out of 20 000 calls) may add two. The
// baseline's count is what Listings 1-2 prescribe per call — the client's
// DataOutputBuffer (record and 32-byte array), the heap-to-native copy, the
// server's 10 KB response buffer (record and array) and its framed copy — on
// top of the same three, plus two: Algorithm 1 regrows the 32-byte buffer when
// the body's length word follows this protocol's 30-byte header, and again
// for the 512-byte body.
func TestRealCallAllocBudget(t *testing.T) {
	observedOpts := func(o Options) Options {
		o.Metrics = metrics.New()
		o.Trace = tracing.New(1, tracing.NewSink(nil, tracing.SinkOptions{}),
			tracing.Sampler{Mode: tracing.SampleEveryN, N: 1 << 30})
		return o
	}
	rpcoib := allocsPerCall(t, Options{Mode: ModeRPCoIB})
	observed := allocsPerCall(t, observedOpts(Options{Mode: ModeRPCoIB}))
	baseline := allocsPerCall(t, Options{Mode: ModeBaseline})
	t.Logf("allocations per call: RPCoIB %.2f, RPCoIB observed %.2f, baseline %.2f", rpcoib, observed, baseline)
	if rpcoib > 6 {
		t.Errorf("RPCoIB call allocates %.2f times, budget 6", rpcoib)
	}
	if observed > rpcoib+2 {
		t.Errorf("observed RPCoIB call allocates %.2f times, unobserved %.2f: observation may add 2", observed, rpcoib)
	}
	if baseline < 10.5 || baseline > 11.5 {
		t.Errorf("baseline call allocates %.2f times, want the 11 that Listings 1-2 and the Writables make", baseline)
	}
}

// seqWritable carries a sequence number and a small body; the server echoes
// it, so a reply delivered to the wrong call shows in its number.
type seqWritable struct {
	seq  uint64
	body [24]byte
}

func (w *seqWritable) Write(out *wire.DataOutput) {
	out.WriteInt64(int64(w.seq))
	out.WriteBytes(w.body[:])
}

func (w *seqWritable) ReadFields(in *wire.DataInput) {
	w.seq = uint64(in.ReadInt64())
	copy(w.body[:], in.ReadBytes(len(w.body)))
}

// TestTimeoutsRaceRepliesOnRecycledSlots: the handler sleeps for about the
// client's CallTimeout, so for every call the timeout and the reply race: the
// waiter gives up while the receiver thread may already hold the slot it took
// from the pending table. A slot reused too early would hand one call's reply
// to another; each reply is checked against its own call's sequence number
// and body, every call resolves exactly once, and the pending table drains.
func TestTimeoutsRaceRepliesOnRecycledSlots(t *testing.T) {
	const callers, perCaller = 4, 2500
	const timeout = 300 * time.Microsecond
	env := exec.NewRealEnv(1)
	opts := Options{Mode: ModeRPCoIB, CallTimeout: timeout}
	nw := transport.NewTCPNetwork("")
	srv := NewServer(nw, opts)
	var served atomic.Int64
	srv.Register("test.Seq", "echo",
		func() wire.Writable { return &seqWritable{} },
		func(e exec.Env, p wire.Writable) (wire.Writable, error) {
			// Sleep around the timeout: a third of the calls answer well
			// before it, a third right at it, a third after it.
			e.Sleep(time.Duration(served.Add(1)%3) * timeout / 2)
			return p, nil
		})
	if err := srv.Start(env, 0); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	client := NewClient(nw, opts)
	defer client.Close()

	var replied, timedOut atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cenv := exec.NewRealEnv(int64(g) + 2)
			for i := 0; i < perCaller; i++ {
				// Fresh Writables per call: a late reply to a timed-out call
				// writes into that call's own reply, never a later call's.
				param := &seqWritable{seq: uint64(g)<<32 | uint64(i)}
				binary.BigEndian.PutUint64(param.body[:], ^param.seq)
				reply := new(seqWritable)
				err := client.Call(cenv, srv.Addr(), "test.Seq", "echo", param, reply)
				switch {
				case err == nil:
					replied.Add(1)
					if *reply != *param {
						t.Errorf("call %#x got the reply of call %#x", param.seq, reply.seq)
						return
					}
				case errors.Is(err, ErrTimeout):
					timedOut.Add(1)
				default:
					t.Errorf("call %#x: %v", param.seq, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	t.Logf("%d replies, %d timeouts", replied.Load(), timedOut.Load())
	if replied.Load() == 0 || timedOut.Load() == 0 {
		t.Errorf("%d replies and %d timeouts: the race was never run both ways", replied.Load(), timedOut.Load())
	}
	if calls, resolved := client.Stats.Calls.Load(), client.Stats.Resolved.Load(); calls != callers*perCaller || resolved != calls {
		t.Errorf("issued %d calls (want %d), resolved %d", calls, callers*perCaller, resolved)
	}
	if n := PendingCallCount(client); n != 0 {
		t.Errorf("%d calls still pending", n)
	}
}

// TestAsyncFuturesKeepTheirOutcome: a future handed out by CallAsync is the
// caller's for good. It must return its own cached outcome from a second
// Wait and from TryWait however many synchronous calls have since completed
// on recycled slots, and its reply must still be its own.
func TestAsyncFuturesKeepTheirOutcome(t *testing.T) {
	env := exec.NewRealEnv(1)
	opts := Options{Mode: ModeRPCoIB}
	_, addr := startEchoServer(t, env, opts)
	client := NewClient(transport.NewTCPNetwork(""), opts)
	defer client.Close()

	var okReply wire.LongWritable
	okFut := client.CallAsync(env, addr, "test.EchoProtocol", "add", &wire.LongWritable{Value: 41}, &okReply)
	errFut := client.CallAsync(env, addr, "test.EchoProtocol", "boom", &wire.Text{Value: "x"}, nil)
	if err := okFut.Wait(env); err != nil {
		t.Fatal(err)
	}
	errWant := errFut.Wait(env)
	var re *RemoteError
	if !errors.As(errWant, &re) {
		t.Fatalf("boom: err = %v, want RemoteError", errWant)
	}

	// Synchronous calls in between take, use and give back reply slots.
	var reply wire.LongWritable
	for i := 0; i < 200; i++ {
		if err := client.Call(env, addr, "test.EchoProtocol", "add", &wire.LongWritable{Value: int64(i)}, &reply); err != nil {
			t.Fatal(err)
		}
		if reply.Value != int64(i)+1 {
			t.Fatalf("call %d: reply %d", i, reply.Value)
		}
	}

	if err := okFut.Wait(env); err != nil {
		t.Errorf("second Wait of the successful future: %v", err)
	}
	if done, err := okFut.TryWait(); !done || err != nil {
		t.Errorf("TryWait of the successful future = (%v, %v), want (true, nil)", done, err)
	}
	if okReply.Value != 42 {
		t.Errorf("the future's reply reads %d after other calls completed, want 42", okReply.Value)
	}
	if err := errFut.Wait(env); err != errWant {
		t.Errorf("second Wait of the failed future = %v, first %v", err, errWant)
	}
	if done, err := errFut.TryWait(); !done || err != errWant {
		t.Errorf("TryWait of the failed future = (%v, %v), want (true, %v)", done, err, errWant)
	}
	if calls, resolved := client.Stats.Calls.Load(), client.Stats.Resolved.Load(); calls != 202 || resolved != 202 {
		t.Errorf("issued %d calls, resolved %d, want 202 each", calls, resolved)
	}
}

// TestAsyncWaitLeavesNoTimer: a CallAsync future is never recycled, so its
// hand-off queue is abandoned with it. A Wait that blocked must not leave
// that queue held by a timer until CallTimeout (two minutes by default):
// each queue is left holding a token only it refers to, and every token must
// be finalized within seconds of the futures being dropped.
func TestAsyncWaitLeavesNoTimer(t *testing.T) {
	env := exec.NewRealEnv(1)
	opts := Options{Mode: ModeRPCoIB}
	_, addr := startEchoServer(t, env, opts)
	client := NewClient(transport.NewTCPNetwork(""), opts)
	defer client.Close()

	const calls = 64
	var collected atomic.Int64
	for i := 0; i < calls; i++ {
		var reply wire.LongWritable
		f := client.CallAsync(env, addr, "test.EchoProtocol", "add", &wire.LongWritable{Value: int64(i)}, &reply)
		if err := f.Wait(env); err != nil || reply.Value != int64(i)+1 {
			t.Fatalf("call %d: reply %d, err %v", i, reply.Value, err)
		}
		token := new([16]byte)
		runtime.SetFinalizer(token, func(*[16]byte) { collected.Add(1) })
		f.replyQ.TryPut(token)
	}
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < calls; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d abandoned reply queues collected", collected.Load(), calls)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestObservedCallAllocBudget pins what full observation adds to one real
// RPCoIB call: a metrics registry plus a tracer that keeps every call and
// streams its spans. The spans are the client's call with its serialize and
// send stages and the server's call with its recv, queue, handler and reply
// stages. Three allocations are left: the two spans Start returns and the
// handler's Env carrying the server span's context. The registry adds none
// (see TestObservedCallBuildsNoLabels), the stage spans live on the stack,
// their byte counts and durations are integer annotations, and the sink
// encodes every record into one buffer it owns.
func TestObservedCallAllocBudget(t *testing.T) {
	const observedCallAllocs = 3
	plain := allocsPerCall(t, Options{Mode: ModeRPCoIB})
	observed := allocsPerCall(t, Options{Mode: ModeRPCoIB, Metrics: metrics.New(),
		Trace: tracing.New(1, tracing.NewSink(io.Discard, tracing.SinkOptions{}), tracing.Sampler{})})
	added := observed - plain
	t.Logf("allocations per call: %.2f unobserved, %.2f observed, %.2f added", plain, observed, added)
	const budget = observedCallAllocs * 1.1
	if added > budget {
		t.Errorf("observation adds %.2f allocations per call, budget %.1f (%d and 10%%)", added, budget, observedCallAllocs)
	}
}
