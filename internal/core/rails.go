package core

import (
	"strconv"
	"sync"
	"time"

	"rpcoib/internal/metrics"
	"rpcoib/internal/transport"
)

// railSet tracks the per-rail health and load of one peer's primary (verbs)
// path on a multi-rail network. It sits *in front of* the peer's S19 circuit
// breaker: an organic failure on one rail marks that rail down and shifts
// traffic to a healthy sibling (rail-to-rail failover); only when every rail
// is down does the failure widen to the breaker, which may then route calls
// over the IPoIB socket fallback. A downed rail is re-tried by a single
// half-open probe connection after its cooldown; the probe's success
// restores the rail, its failure re-arms the cooldown. All state is driven
// by the caller's virtual clock and consulted in deterministic order, so
// faulted runs replay bit-identically.
//
// Single-rail networks never allocate a railSet (Client.railSet returns nil
// when Rails() <= 1), keeping the historical code path — and its event
// schedule — byte-identical.
type railSet struct {
	rails     int
	preferred int
	cooldown  time.Duration
	m         *clientMetrics
	calls     []*metrics.Counter // per-rail rpc_rail_calls_total (nil-safe)

	mu   sync.Mutex
	st   []railState
	load []int // connections' outstanding calls per rail
}

// railState is one rail's health machine: closed (up), open (down, cooling),
// or probing (one half-open connection testing it).
type railState struct {
	down     bool
	probing  bool
	failedAt time.Duration // last failure, for the cooldown clock
}

func newRailSet(rails, preferred int, cooldown time.Duration, m *clientMetrics) *railSet {
	rs := &railSet{
		rails: rails, preferred: preferred, cooldown: cooldown, m: m,
		st: make([]railState, rails), load: make([]int, rails),
	}
	rs.calls = make([]*metrics.Counter, rails)
	if m.reg != nil {
		for r := 0; r < rails; r++ {
			rs.calls[r] = m.railCalls(r)
		}
	}
	return rs
}

// pick chooses the rail for the next connection to the peer. up reports the
// locally observable port state per rail. Decision order, all deterministic:
//
//  1. A rail whose port is observed down (IBV_PORT_DOWN) while the selector
//     still held it healthy is marked down now — its return will be gated
//     through a half-open probe rather than trusted instantly, since a port
//     that flapped back up says nothing about the far side of the rail.
//  2. A downed rail past its cooldown with an active port gets one half-open
//     probe (lowest index first); pick marks it probing and returns it.
//  3. Among healthy rails, the preferred (rack-affinity) rail wins unless it
//     is carrying at least two more outstanding calls than the least-loaded
//     healthy rail; then least-loaded wins, ties to the lowest index.
//  4. With no healthy rail, the preferred rail is returned as a forlorn hope:
//     its failure will charge the breaker (allDown) and widen to the
//     fallback path.
func (rs *railSet) pick(now time.Duration, up func(int) bool) (rail int, probe bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for r := 0; r < rs.rails; r++ {
		s := &rs.st[r]
		if !s.down && !up(r) {
			s.down = true
			s.probing = false
			s.failedAt = now
			rs.m.railUnhealthy.Inc()
			if rs.anyHealthyLocked(up) {
				// Traffic shifts to a live sibling: a rail-to-rail failover.
				rs.m.railFailovers.Inc()
			}
		}
	}
	for r := 0; r < rs.rails; r++ {
		s := &rs.st[r]
		if s.down && !s.probing && up(r) && now-s.failedAt >= rs.cooldown {
			s.probing = true
			rs.m.railProbes.Inc()
			return r, true
		}
	}
	best := -1
	for r := 0; r < rs.rails; r++ {
		if rs.st[r].down || !up(r) {
			continue
		}
		if best < 0 || rs.load[r] < rs.load[best] {
			best = r
		}
	}
	if best < 0 {
		return rs.preferred, false
	}
	p := rs.preferred
	if p < rs.rails && !rs.st[p].down && up(p) && rs.load[p] <= rs.load[best]+1 {
		return p, false
	}
	return best, false
}

// onSuccess records a completed call (or established probe) on rail: a
// downed rail is restored and its probe slot released.
func (rs *railSet) onSuccess(rail int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	s := &rs.st[rail]
	if s.down {
		s.down = false
		rs.m.railRestores.Inc()
		rs.m.railUnhealthy.Dec()
	}
	s.probing = false
}

// onFailure records an organic failure (dial error, call timeout, connection
// fault) on rail at virtual time now. It returns whether every rail is now
// down — the widen signal: only then does the caller charge the peer's S19
// circuit breaker, preserving rail→rail-before-IB→IPoIB failover order.
func (rs *railSet) onFailure(rail int, now time.Duration) (allDown bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	s := &rs.st[rail]
	if !s.down {
		s.down = true
		rs.m.railUnhealthy.Inc()
	}
	s.probing = false
	s.failedAt = now
	for r := 0; r < rs.rails; r++ {
		if !rs.st[r].down {
			// A healthy sibling remains: traffic shifts rather than widens.
			rs.m.railFailovers.Inc()
			return false
		}
	}
	return true
}

// primaryFailure charges one organic primary-path failure (dial error, call
// timeout, connection fault) on rail at virtual time at. The rail selector
// is charged first, so traffic shifts rail to rail; the failure widens to the
// peer's S19 breaker only when no healthy rail is left — or at once on
// single-rail networks (rs nil). br is nil when failover is not armed.
func primaryFailure(rs *railSet, br *breaker, rail int, at time.Duration) {
	if rs != nil && !rs.onFailure(rail, at) {
		return
	}
	if br != nil {
		br.onFailure(at)
	}
}

// anyHealthyLocked reports whether some rail is both un-failed and has an
// active port. Callers hold rs.mu.
func (rs *railSet) anyHealthyLocked(up func(int) bool) bool {
	for r := 0; r < rs.rails; r++ {
		if !rs.st[r].down && up(r) {
			return true
		}
	}
	return false
}

// acquire/release track outstanding calls per rail for least-loaded
// placement.
func (rs *railSet) acquire(rail int) {
	rs.mu.Lock()
	rs.load[rail]++
	rs.mu.Unlock()
}

func (rs *railSet) release(rail int) {
	rs.mu.Lock()
	if rs.load[rail] > 0 {
		rs.load[rail]--
	}
	rs.mu.Unlock()
}

// countCall bumps the rail's per-rail call counter (nil-safe).
func (rs *railSet) countCall(rail int) {
	if rs.calls[rail] != nil {
		rs.calls[rail].Inc()
	}
}

// railSet returns (creating on first use) the rail selector for addr, or nil
// when the network is not multi-rail — the activation gate that keeps
// single-rail runs on the historical code path.
func (c *Client) railSet(addr string) *railSet {
	rd, ok := c.net.(transport.RailDialer)
	if !ok || rd.Rails() <= 1 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := c.railSets[addr]
	if rs == nil {
		if c.railSets == nil {
			c.railSets = map[string]*railSet{}
		}
		rs = newRailSet(rd.Rails(), rd.PreferredRail(addr), c.opts.BreakerCooldown, &c.m)
		c.railSets[addr] = rs
	}
	return rs
}

// railName interns rail-index label values for the per-rail call counter.
var railName = func() []string {
	names := make([]string, 8)
	for i := range names {
		names[i] = strconv.Itoa(i)
	}
	return names
}()

func railLabel(rail int) string {
	if rail < len(railName) {
		return railName[rail]
	}
	return strconv.Itoa(rail)
}
