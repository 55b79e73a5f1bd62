package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rpcoib/internal/exec"
	"rpcoib/internal/tracing"
	"rpcoib/internal/wire"
)

// Future is the completion handle of one asynchronous call attempt. The
// caller that issued it waits (or polls) for the result; the Connection
// receiver thread completes it. A Future is resolved at most once and caches
// its outcome, so Wait after completion is cheap and idempotent. It is built
// on exec.Queue, so it behaves identically under the simulator and on real
// goroutines.
//
// A Future has a single logical consumer: the thread that issued the call
// (or one it handed the future to). Two threads must not Wait on the same
// Future concurrently.
//
// A future handed to a caller (CallAsync, FanOut) is that caller's for good.
// The synchronous Call never lets its future out, so once it has waited it
// gives the future — the reply slot and its queue — back for the client's
// next call; see recycle for when that is safe.
type Future struct {
	c        *Client
	conn     *Connection
	id       int32
	kind     *clientKind
	start    time.Duration
	timeout  time.Duration
	deadline time.Duration // absolute propagated deadline (0 = none)
	replyQ   exec.Queue

	// reply and the outcome fields are written by the connection's receiver
	// thread strictly before it signals replyQ, and read by the waiter only
	// after the queue hand-off, so the queue is their synchronization edge.
	// The Future doubles as the connection's pending-call record: folding the
	// outcome into it (rather than boxing a value through the queue) keeps
	// the per-call allocation count down, which TestRealCallAllocBudget
	// pins. outAt stamps virtual completion time so RTT accounting charges
	// the wire round trip, not how long the caller postponed Wait.
	reply  wire.Writable
	outErr error
	outAt  time.Duration

	// handedOff records that resolve consumed the receiver's hand-off: the
	// receiver thread is done with this future and nothing else holds it.
	handedOff bool

	// span is this attempt's client.call span (nil when untraced or sampled
	// out). resolve ends it with the outcome; CallWith parents the next
	// attempt onto it so a retry chain reads as nested attempts in one trace.
	span *tracing.Span

	mu   sync.Mutex
	done bool
	err  error
}

// Wait blocks until the call completes, times out, or its connection fails,
// and returns the call's error (nil on success). Waiting again returns the
// cached outcome.
func (f *Future) Wait(e exec.Env) error {
	f.mu.Lock()
	if f.done {
		err := f.err
		f.mu.Unlock()
		return err
	}
	f.mu.Unlock()
	_, ok, timedOut := f.replyQ.GetTimeout(e, f.timeout)
	return f.resolve(ok, timedOut)
}

// TryWait polls for completion without blocking. done reports whether the
// future is resolved; err is meaningful only when done.
func (f *Future) TryWait() (done bool, err error) {
	f.mu.Lock()
	if f.done {
		done, err = true, f.err
		f.mu.Unlock()
		return done, err
	}
	f.mu.Unlock()
	if _, ok := f.replyQ.TryGet(); ok {
		return true, f.resolve(true, false)
	}
	if f.conn.closed.Load() {
		// The reply may have raced the close; drain once more before
		// resolving to the connection error.
		if _, ok := f.replyQ.TryGet(); ok {
			return true, f.resolve(true, false)
		}
		return true, f.resolve(false, false)
	}
	return false, nil
}

// resolve classifies the queue outcome exactly as the old synchronous Call
// did, updates stats, and caches the result. The outcome accounting runs
// exactly once, on the done transition, so Stats.Resolved and the per-kind
// completed/failed counters stay balanced against Stats.Calls. It also feeds
// the peer's circuit breaker: timeouts and failures on the primary path
// count toward tripping it, a success closes a half-open probe.
func (f *Future) resolve(ok, timedOut bool) error {
	c := f.c
	var err error
	switch {
	case timedOut:
		// Drop the pending entry so the table does not leak and a late
		// response is ignored.
		f.conn.takeCall(f.id)
		c.m.timeouts.Inc()
		if f.deadline > 0 {
			// The wait was clamped to a propagated deadline: report the
			// gRPC-style deadline error, not a generic timeout. The server
			// sees the same deadline in the header and drops the call
			// undispatched if it is still queued.
			c.m.deadlineExceeded.Inc()
			err = ErrDeadlineExceeded
		} else {
			err = ErrTimeout
		}
		if !f.conn.fallback {
			primaryFailure(f.conn.rs, f.conn.br, f.conn.rail, f.start+f.timeout)
		}
	case !ok:
		if ce := f.conn.closeError(); ce != nil {
			err = fmt.Errorf("%w: %v", ErrClosed, ce)
		} else {
			err = ErrClosed
		}
	default:
		err = f.outErr
		f.handedOff = true
	}
	f.mu.Lock()
	if f.done {
		err = f.err
		f.mu.Unlock()
		return err
	}
	f.done, f.err = true, err
	f.mu.Unlock()
	c.Stats.Resolved.Add(1)
	if f.span != nil {
		// Span end timestamps come from stored completion state: resolve has
		// no Env (TryWait may run on any thread), so the receiver-stamped
		// outAt — or the timeout's absolute expiry — is the end of record.
		end := f.outAt
		switch {
		case timedOut:
			end = f.start + f.timeout
			f.span.SetAttr("outcome", "timeout")
		case err != nil:
			if end == 0 {
				end = f.start
			}
			f.span.SetAttr("outcome", "error")
		}
		f.span.EndAt(end)
	}
	if err != nil {
		c.Stats.Errors.Add(1)
		c.m.errors.Inc()
		f.kind.failed.Inc()
	} else {
		if f.conn != nil {
			if f.conn.fallback {
				c.m.fallbackCalls.Inc()
			} else {
				if f.conn.rs != nil {
					f.conn.rs.onSuccess(f.conn.rail)
				}
				if f.conn.br != nil {
					f.conn.br.onSuccess()
				}
			}
		}
		// The exemplar links this latency bucket to the trace that produced
		// it, so an rpc_client_call_ns outlier bucket points straight at a
		// followable trace ID.
		f.kind.rtt.ObserveExemplar(int64(f.outAt-f.start), f.span.TraceID())
	}
	return err
}

// newFuture returns a reply slot for the next call: one a synchronous Call
// has given back, or a fresh one with its own hand-off queue.
func (c *Client) newFuture(e exec.Env) *Future {
	if f := c.slots.get(); f != nil {
		return f
	}
	return &Future{c: c, replyQ: e.NewQueue(1)}
}

// recycle gives the future of a finished synchronous call back as the reply
// slot of a later one. Only a future whose hand-off was consumed qualifies:
// the receiver thread's last touch of it was that hand-off and the pending
// table no longer lists it, so the caller is its sole holder. After a timeout
// or a connection failure the receiver may still hold the pointer it took
// from the table (and a failed connection closed the queue), so those
// futures are left to the collector.
func (c *Client) recycle(f *Future) {
	if !f.handedOff {
		return
	}
	*f = Future{c: c, replyQ: f.replyQ}
	c.slots.put(f)
}

// failedFuture returns an already-resolved future for errors hit while
// issuing (dial failure, send failure, closed connection).
func (c *Client) failedFuture(kind *clientKind, err error) *Future {
	c.Stats.Resolved.Add(1)
	c.Stats.Errors.Add(1)
	c.m.errors.Inc()
	kind.failed.Inc()
	return &Future{c: c, kind: kind, done: true, err: err}
}

// failedFutureSpan is failedFuture for a traced attempt: the span ends here
// with the error outcome, and rides the resolved future so CallWith can
// still parent the retry onto the failed attempt.
func (c *Client) failedFutureSpan(e exec.Env, span *tracing.Span, kind *clientKind, err error) *Future {
	if span != nil {
		span.SetAttr("outcome", "error")
		span.EndAt(e.Now())
	}
	f := c.failedFuture(kind, err)
	f.span = span
	return f
}

// CallPolicy drives retries at the client layer: how many attempts, the
// exponential backoff between them (with jitter drawn from the environment's
// seeded PRNG, so simulated schedules stay deterministic), and an overall
// deadline budgeted across attempts. The zero value means one attempt, no
// deadline — exactly the pre-policy behavior.
type CallPolicy struct {
	// MaxAttempts is the total number of attempts (<= 0 means 1).
	MaxAttempts int
	// Backoff is the sleep before the second attempt; it doubles per
	// attempt. 0 retries immediately.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (0 = uncapped).
	MaxBackoff time.Duration
	// Jitter spreads each backoff uniformly over [1-Jitter, 1+Jitter]
	// multiples of its nominal value (0 = none).
	Jitter float64
	// Deadline bounds the whole retry schedule from the first attempt
	// (0 = none). Remaining budget also caps each attempt's wait.
	Deadline time.Duration
	// RetryOn decides whether an error is worth another attempt. When nil,
	// CallWith uses RetryTransient and Do retries every error.
	RetryOn func(error) bool
}

// RetryTransient is the default CallWith predicate: retry connection-level
// failures (dial errors, ErrClosed) which a reconnect can cure, and shed
// "server too busy" rejections (the server itself asked for a retry), but
// not server-side RemoteErrors, timeouts, or expired deadlines — the server
// may have executed a timed-out call, so blind re-issue is not safe by
// default, and a passed deadline cannot un-pass.
func RetryTransient(err error) bool {
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	return !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrDeadlineExceeded)
}

// backoffFor returns the sleep after `attempt` failed attempts (1-based).
// The jitter draw comes from the environment's PRNG at each call — one draw
// per retry, never cached per policy — so a faulted run whose retry count
// differs across seeds still replays bit-identically under its own seed.
func (p CallPolicy) backoffFor(e exec.Env, attempt int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	d := scaledBackoff(p.Backoff, attempt-1, p.MaxBackoff)
	if p.Jitter > 0 {
		if rnd := e.Rand(); rnd != nil {
			d = time.Duration(float64(d) * (1 + p.Jitter*(2*rnd.Float64()-1)))
		}
	}
	return d
}

// scaledBackoff doubles base n times, capping at max (when > 0) and at an
// overflow guard no modeled backoff needs to exceed.
func scaledBackoff(base time.Duration, n int, max time.Duration) time.Duration {
	d := base
	for i := 0; i < n; i++ {
		d *= 2
		if max > 0 && d >= max {
			break
		}
		if d > time.Hour {
			break
		}
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}

// Do runs op under the policy's retry/backoff/deadline schedule and returns
// the last error (nil once op succeeds). attempt is 0-based. Unlike CallWith,
// a nil RetryOn retries every error: Do is the generic driver for semantic
// retries (e.g. polling a namenode until replication completes) where the
// "error" is an application-level not-yet signal.
func (p CallPolicy) Do(e exec.Env, op func(attempt int) error) error {
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	retry := p.RetryOn
	if retry == nil {
		retry = func(error) bool { return true }
	}
	start := e.Now()
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := p.backoffFor(e, attempt)
			if p.Deadline > 0 {
				rem := p.Deadline - (e.Now() - start)
				if rem <= 0 {
					return err
				}
				if d > rem {
					d = rem
				}
			}
			if d > 0 {
				e.Sleep(d)
			}
		}
		if err = op(attempt); err == nil || !retry(err) {
			return err
		}
		if p.Deadline > 0 && e.Now()-start >= p.Deadline {
			return err
		}
	}
	return err
}

// CallWith is Call under an explicit policy: each attempt is a full
// issue+wait whose timeout is clamped to the policy's remaining deadline;
// retryable failures (per RetryOn, default RetryTransient) re-dial and
// re-issue after backoff. A deadline rides the request header, so the
// server drops the call undispatched once it expires instead of doing dead
// work. "Server too busy" rejections are not hard failures: the
// server-suggested backoff floors the retry sleep, growing exponentially
// (capped by MaxBackoff) while the rejections persist.
func (c *Client) CallWith(e exec.Env, p CallPolicy, addr, protocol, method string, param, reply wire.Writable) error {
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	retry := p.RetryOn
	if retry == nil {
		retry = RetryTransient
	}
	start := e.Now()
	var err error
	busyStreak := 0
	// ce is the Env each attempt is issued under. After a failed traced
	// attempt it carries that attempt's span context, so the retry's
	// client.call span parents onto the attempt it is retrying — the retry
	// chain reads as nested attempts inside one trace.
	ce := e
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.m.policyRetries.Inc()
			d := p.backoffFor(e, attempt)
			var tb *TooBusyError
			if errors.As(err, &tb) && tb.Backoff > 0 {
				if sb := scaledBackoff(tb.Backoff, busyStreak-1, p.MaxBackoff); sb > d {
					d = sb
				}
			}
			if p.Deadline > 0 {
				rem := p.Deadline - (e.Now() - start)
				if rem <= 0 {
					return err
				}
				if d > rem {
					d = rem
				}
			}
			if d > 0 {
				e.Sleep(d)
			}
		}
		timeout := c.timeout
		var deadline time.Duration
		if p.Deadline > 0 {
			deadline = start + p.Deadline
			rem := deadline - e.Now()
			if rem <= 0 {
				return err
			}
			if rem < timeout {
				timeout = rem
			}
		}
		f := c.issue(ce, addr, protocol, method, param, reply, timeout, deadline)
		err = f.Wait(e)
		sc := f.span.Context()
		c.recycle(f)
		if err == nil || !retry(err) {
			return err
		}
		if sc.Trace != 0 {
			ce = tracing.WithSpan(e, sc)
		}
		if errors.Is(err, ErrServerTooBusy) {
			busyStreak++
		} else {
			busyStreak = 0
		}
	}
	return err
}

// FanOutCall names one call of a batch: destination plus the usual call
// arguments. Reply must be a distinct Writable per call.
type FanOutCall struct {
	Addr     string
	Protocol string
	Method   string
	Param    wire.Writable
	Reply    wire.Writable
}

// FanOut issues every call asynchronously, in slice order (deterministic
// under simulation), and returns the futures in the same order. Calls to
// distinct servers proceed concurrently: serialization is pipelined behind
// each connection's send lock and the waits overlap.
func (c *Client) FanOut(e exec.Env, calls []FanOutCall) []*Future {
	futs := make([]*Future, len(calls))
	for i, fc := range calls {
		futs[i] = c.CallAsync(e, fc.Addr, fc.Protocol, fc.Method, fc.Param, fc.Reply)
	}
	return futs
}

// WaitAll waits on every future in order and returns the first error seen
// (nil if all succeeded). All futures are waited even after a failure, so no
// pending-call state leaks.
func WaitAll(e exec.Env, futs []*Future) error {
	var first error
	for _, f := range futs {
		if f == nil {
			continue
		}
		if err := f.Wait(e); err != nil && first == nil {
			first = err
		}
	}
	return first
}
