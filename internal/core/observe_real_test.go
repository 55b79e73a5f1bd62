package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpcoib/internal/exec"
	"rpcoib/internal/metrics"
	"rpcoib/internal/transport"
	"rpcoib/internal/wire"
)

func seriesCount(s metrics.Snapshot) int {
	return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
}

// TestHostileMethodNamesBounded: the <protocol,method> strings of a request
// come off the wire before the server knows it serves them. A peer sending
// distinct bogus names must get an error for each and must not grow the
// registry: they all observe into the one unknown record.
func TestHostileMethodNamesBounded(t *testing.T) {
	testModes(t, func(t *testing.T, opts Options) {
		env := exec.NewRealEnv(1)
		reg := metrics.New()
		sopts := opts
		sopts.Metrics = reg
		_, addr := startEchoServer(t, env, sopts)
		client := NewClient(transport.NewTCPNetwork(""), opts)
		defer client.Close()

		bogus := func(i int) {
			t.Helper()
			err := client.Call(env, addr, fmt.Sprintf("evil.Proto%d", i), fmt.Sprintf("m%d", i), &wire.Text{}, nil)
			var re *RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("bogus call %d: err = %v, want RemoteError", i, err)
			}
		}
		bogus(0)
		after1 := seriesCount(reg.Snapshot(0))
		const n = 1000
		for i := 1; i < n; i++ {
			bogus(i)
		}
		snap := reg.Snapshot(0)
		if got := seriesCount(snap); got != after1 {
			t.Errorf("registry grew from %d to %d series over %d bogus kinds", after1, got, n)
		}
		name := metrics.Labels(mServerStageNS, "protocol", unknownKind, "method", unknownKind, "stage", stageSerialize)
		if got := snap.Histograms[name].Count; got != n {
			t.Errorf("%s count = %d, want %d", name, got, n)
		}
	})
}

// TestKillServerWhileIssuing: callers keep issuing while the receiver
// goroutine tears the connection down under them. Every future must resolve
// exactly once, and (under -race) the issue path's reads of the connection's
// closed flag must not race the teardown's write. Half the callers use the
// synchronous Call, so the teardown catches calls in flight on reply slots
// that earlier calls used and gave back: a slot the failed connection closed,
// or one the receiver still held, must not come round again.
func TestKillServerWhileIssuing(t *testing.T) {
	env := exec.NewRealEnv(1)
	opts := Options{Mode: ModeRPCoIB, CallTimeout: 10 * time.Second}
	srv, addr := startEchoServer(t, env, opts)
	client := NewClient(transport.NewTCPNetwork(""), opts)
	defer client.Close()

	const callers, failuresEach = 4, 20
	var succeeded atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cenv := exec.NewRealEnv(int64(g) + 2)
			param := &wire.BytesWritable{Value: make([]byte, 64)}
			for failures := 0; failures < failuresEach; {
				var reply wire.BytesWritable
				var err error
				if g%2 == 0 {
					f := client.CallAsync(cenv, addr, "test.EchoProtocol", "echo", param, &reply)
					err = f.Wait(cenv)
					if again := f.Wait(cenv); again != err {
						t.Errorf("second Wait returned %v, first %v", again, err)
					}
				} else {
					err = client.Call(cenv, addr, "test.EchoProtocol", "echo", param, &reply)
				}
				if err == nil && len(reply.Value) != len(param.Value) {
					t.Errorf("echoed %d bytes of %d", len(reply.Value), len(param.Value))
				}
				if err != nil {
					failures++
				} else {
					succeeded.Add(1)
				}
			}
		}()
	}
	for succeeded.Load() < 100 {
		time.Sleep(time.Millisecond)
	}
	srv.Stop()
	wg.Wait()

	calls, resolved := client.Stats.Calls.Load(), client.Stats.Resolved.Load()
	if calls != resolved {
		t.Errorf("issued %d calls, resolved %d", calls, resolved)
	}
	if want := succeeded.Load() + callers*failuresEach; calls != want {
		t.Errorf("issued %d calls, callers saw %d outcomes", calls, want)
	}
	if errs := client.Stats.Errors.Load(); errs != callers*failuresEach {
		t.Errorf("client counted %d failures, callers saw %d", errs, callers*failuresEach)
	}
	if n := PendingCallCount(client); n != 0 {
		t.Errorf("%d calls still pending", n)
	}
}

// TestObservedCallBuildsNoLabels: with a registry attached, a warmed call
// resolves every instrument through its kind record, so it allocates what an
// unobserved call allocates — no label string is built on the steady-state
// path, client or server.
func TestObservedCallBuildsNoLabels(t *testing.T) {
	testModes(t, func(t *testing.T, opts Options) {
		allocsPerCall := func(reg *metrics.Registry) float64 {
			env := exec.NewRealEnv(1)
			o := opts
			o.Metrics = reg
			_, addr := startEchoServer(t, env, o)
			client := NewClient(transport.NewTCPNetwork(""), o)
			defer client.Close()
			param := &wire.BytesWritable{Value: make([]byte, 512)}
			var reply wire.BytesWritable
			call := func() {
				if err := client.Call(env, addr, "test.EchoProtocol", "echo", param, &reply); err != nil {
					t.Error(err)
				}
			}
			for i := 0; i < 8; i++ { // connect, resolve the kind, settle pool history
				call()
			}
			return testing.AllocsPerRun(200, call)
		}
		plain, observed := allocsPerCall(nil), allocsPerCall(metrics.New())
		t.Logf("allocs per call: %.1f unobserved, %.1f observed", plain, observed)
		// One metrics.Labels call costs three allocations or more; the slack
		// is below that, for goroutine-scheduling noise in the count.
		if observed > plain+2 {
			t.Errorf("observed call allocates %.1f, unobserved %.1f: the per-call path builds labels", observed, plain)
		}
	})
}
