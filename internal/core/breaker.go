package core

import (
	"sort"
	"sync"
	"time"
)

// breakerState is the classic circuit-breaker trio.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker guards one peer's primary (verbs) path. Consecutive primary
// failures — dial timeouts, call timeouts, organic connection faults — trip
// it open; while open, calls route over the network's fallback transport
// (IPoIB sockets). After the cooldown one caller is let through as a
// half-open probe on the primary: its success closes the breaker and
// restores the IB path, its failure re-opens it for another cooldown.
// Everything is driven by the caller's virtual clock, so faulted runs replay
// bit-identically.
type breaker struct {
	threshold int
	cooldown  time.Duration
	m         *clientMetrics

	mu       sync.Mutex
	state    breakerState
	failures int // consecutive primary failures while closed
	openedAt time.Duration
	probing  bool // a half-open probe is in flight on the primary

	// Transition counters for the invariant checker: every open eventually
	// resolves through exactly one half-open probe outcome.
	opens, halfOpens, closes, reopens int64
}

func newBreaker(threshold int, cooldown time.Duration, m *clientMetrics) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, m: m}
}

// route decides where the next connection for this peer goes. It returns
// true to use the fallback transport. In the half-open state exactly one
// caller probes the primary; the rest keep using the fallback until the
// probe's outcome is known.
func (b *breaker) route(now time.Duration) (fallback bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return false
	case breakerOpen:
		if now-b.openedAt < b.cooldown {
			return true
		}
		b.state = breakerHalfOpen
		b.probing = true
		b.halfOpens++
		b.m.breakerHalfOpens.Inc()
		return false
	default: // half-open
		if b.probing {
			return true
		}
		b.probing = true
		return false
	}
}

// onSuccess records a successful call on the primary path.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerClosed
		b.probing = false
		b.failures = 0
		b.closes++
		b.m.breakerCloses.Inc()
		b.m.breakerOpenGauge.Dec()
	case breakerClosed:
		b.failures = 0
	}
}

// onFailure records a primary-path failure at virtual time now.
func (b *breaker) onFailure(now time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.probing = false
		b.openedAt = now
		b.reopens++
		b.m.breakerReopens.Inc()
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = now
			b.failures = 0
			b.opens++
			b.m.breakerOpens.Inc()
			b.m.breakerOpenGauge.Inc()
		}
	}
}

// breaker returns (creating on first use) the breaker guarding addr.
func (c *Client) breaker(addr string) *breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[addr]
	if b == nil {
		b = newBreaker(DefaultBreakerThreshold, DefaultBreakerCooldown, &c.m)
		if c.breakers == nil {
			c.breakers = map[string]*breaker{}
		}
		c.breakers[addr] = b
	}
	return b
}

// BreakerInfo is one peer breaker's externally visible state, for tests and
// the fault-injection invariant checker.
type BreakerInfo struct {
	Addr      string
	State     string
	Opens     int64
	HalfOpens int64
	Closes    int64
	Reopens   int64
}

// Breakers snapshots every peer breaker of c in deterministic (address)
// order.
func Breakers(c *Client) []BreakerInfo {
	c.mu.Lock()
	addrs := make([]string, 0, len(c.breakers))
	for a := range c.breakers {
		addrs = append(addrs, a)
	}
	c.mu.Unlock()
	sort.Strings(addrs)
	out := make([]BreakerInfo, 0, len(addrs))
	for _, a := range addrs {
		c.mu.Lock()
		b := c.breakers[a]
		c.mu.Unlock()
		if b == nil {
			continue
		}
		b.mu.Lock()
		out = append(out, BreakerInfo{
			Addr: a, State: b.state.String(),
			Opens: b.opens, HalfOpens: b.halfOpens,
			Closes: b.closes, Reopens: b.reopens,
		})
		b.mu.Unlock()
	}
	return out
}
