package faultsim

import (
	"encoding/json"
	"fmt"
	"strings"

	"rpcoib/internal/bufpool"
	"rpcoib/internal/core"
	"rpcoib/internal/ibverbs"
	"rpcoib/internal/metrics"
)

// Report accumulates invariant violations found after a simulated run. An
// empty report means the engine came through the fault schedule clean.
type Report struct {
	Violations []string
}

// OK reports whether no invariant was violated.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Addf records one violation.
func (r *Report) Addf(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// String renders the report for test failure messages.
func (r *Report) String() string {
	if r.OK() {
		return "faultsim: all invariants hold"
	}
	return fmt.Sprintf("faultsim: %d invariant violation(s):\n  %s",
		len(r.Violations), strings.Join(r.Violations, "\n  "))
}

// CheckClient asserts the no-leaked-future invariant on one client at
// quiescence: every CallAsync resolved (successfully or with an error) and no
// pending-call table entry survived. name labels violations.
func (r *Report) CheckClient(name string, c *core.Client) {
	if c == nil {
		return
	}
	calls, resolved := c.Stats.Calls.Load(), c.Stats.Resolved.Load()
	if calls != resolved {
		r.Addf("%s: leaked futures: %d calls issued, %d resolved", name, calls, resolved)
	}
	if n := core.PendingCallCount(c); n != 0 {
		r.Addf("%s: %d call(s) still pending in connection tables", name, n)
	}
}

// CheckBreakers asserts the circuit-breaker bookkeeping identities on one
// client at quiescence. Every open (first or re-open) either is the current
// state or was resolved by exactly one half-open probe, and every half-open
// either is the current state or resolved to exactly one close or re-open:
//
//	opens + reopens - halfOpens  ∈ {0, 1}   (1 iff the breaker ended open)
//	halfOpens - closes - reopens ∈ {0, 1}   (1 iff it ended half-open)
func (r *Report) CheckBreakers(name string, c *core.Client) {
	if c == nil {
		return
	}
	for _, b := range core.Breakers(c) {
		openDebt := b.Opens + b.Reopens - b.HalfOpens
		wantOpen := int64(0)
		if b.State == "open" {
			wantOpen = 1
		}
		if openDebt != wantOpen {
			r.Addf("%s: breaker %s (%s): opens %d + reopens %d - half-opens %d = %d, want %d",
				name, b.Addr, b.State, b.Opens, b.Reopens, b.HalfOpens, openDebt, wantOpen)
		}
		probeDebt := b.HalfOpens - b.Closes - b.Reopens
		wantProbe := int64(0)
		if b.State == "half-open" {
			wantProbe = 1
		}
		if probeDebt != wantProbe {
			r.Addf("%s: breaker %s (%s): half-opens %d - closes %d - reopens %d = %d, want %d",
				name, b.Addr, b.State, b.HalfOpens, b.Closes, b.Reopens, probeDebt, wantProbe)
		}
	}
}

// CheckRuntime runs CheckClient over every client cached in a runtime.
// Capture rt.Clients() before closing the runtime if Close happens first —
// Close empties the cache.
func (r *Report) CheckRuntime(name string, rt *core.Runtime) {
	for i, c := range rt.Clients() {
		r.CheckClient(fmt.Sprintf("%s/client%d", name, i), c)
		r.CheckBreakers(fmt.Sprintf("%s/client%d", name, i), c)
	}
}

// CheckPool asserts the registered-buffer invariants on one two-level pool at
// quiescence: no buffer still outstanding (lost) and no double-free was ever
// attempted.
func (r *Report) CheckPool(name string, p *bufpool.NativePool) {
	if p == nil {
		return
	}
	s := p.StatsSnapshot()
	if out := s.Gets - s.Puts; out != 0 {
		r.Addf("%s: %d registered buffer(s) lost (gets %d, puts %d)", name, out, s.Gets, s.Puts)
	}
	if s.DoubleFrees != 0 {
		r.Addf("%s: %d double-free(s) of registered buffers", name, s.DoubleFrees)
	}
}

// CheckDevicePools runs CheckPool over every HCA receive pool in the verbs
// network (deterministic node order).
func (r *Report) CheckDevicePools(net *ibverbs.Network) {
	for _, dev := range net.Devices() {
		r.CheckPool(fmt.Sprintf("ib-dev%d-recvpool", dev.Node()), dev.RecvPool())
	}
}

// CheckSnapshotBalance asserts the per-<protocol,method> accounting identity
// on a metrics snapshot: every issued call either completed (counted by the
// rpc_client_call_ns histogram) or failed (counted by rpc_client_failed_total)
// — sends = completions + failures, per call kind.
func (r *Report) CheckSnapshotBalance(snap metrics.Snapshot) {
	const issuedName = "rpc_client_issued_total"
	for name, issued := range snap.Counters {
		if !strings.HasPrefix(name, issuedName) {
			continue
		}
		labels := strings.TrimPrefix(name, issuedName)
		failed := snap.Counters["rpc_client_failed_total"+labels]
		completed := snap.Histograms["rpc_client_call_ns"+labels].Count
		if issued != completed+failed {
			r.Addf("metrics%s: issued %d != completed %d + failed %d",
				labels, issued, completed, failed)
		}
	}
}

// SameSnapshot reports whether two snapshots are byte-identical once
// serialized (JSON object keys sort deterministically, so this is the
// same-seed reproducibility check). The returned diff names the first
// difference for test output.
func SameSnapshot(a, b metrics.Snapshot) (bool, string) {
	aj, err := json.Marshal(a)
	if err != nil {
		return false, fmt.Sprintf("marshal a: %v", err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		return false, fmt.Sprintf("marshal b: %v", err)
	}
	if string(aj) == string(bj) {
		return true, ""
	}
	// Narrow the mismatch to a counter/gauge/histogram for readable failures.
	for name, v := range a.Counters {
		if b.Counters[name] != v {
			return false, fmt.Sprintf("counter %s: %d vs %d", name, v, b.Counters[name])
		}
	}
	for name, v := range b.Counters {
		if _, ok := a.Counters[name]; !ok {
			return false, fmt.Sprintf("counter %s: absent vs %d", name, v)
		}
	}
	for name, v := range a.Gauges {
		if b.Gauges[name] != v {
			return false, fmt.Sprintf("gauge %s: %d vs %d", name, v, b.Gauges[name])
		}
	}
	for name, h := range a.Histograms {
		if bh := b.Histograms[name]; bh.Count != h.Count || bh.Sum != h.Sum {
			return false, fmt.Sprintf("histogram %s: count %d sum %d vs count %d sum %d",
				name, h.Count, h.Sum, bh.Count, bh.Sum)
		}
	}
	if a.AtNS != b.AtNS {
		return false, fmt.Sprintf("at_ns: %d vs %d", a.AtNS, b.AtNS)
	}
	return false, "snapshots differ (serialized bytes unequal)"
}
