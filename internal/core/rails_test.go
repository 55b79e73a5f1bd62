package core

import (
	"math/rand"
	"testing"
	"time"

	"rpcoib/internal/metrics"
)

// refRailModel is an independent restatement of the rail selector's contract,
// written against the documented semantics rather than the railSet code: per
// rail, a down flag, probe slot, failure stamp, and load; pick follows
// port-observation → probe → affinity/least-loaded → forlorn-hope order.
type refRailModel struct {
	rails     int
	preferred int
	cooldown  time.Duration
	down      []bool
	probing   []bool
	failedAt  []time.Duration
	load      []int
}

func newRefRailModel(rails, preferred int, cooldown time.Duration) *refRailModel {
	return &refRailModel{
		rails: rails, preferred: preferred, cooldown: cooldown,
		down: make([]bool, rails), probing: make([]bool, rails),
		failedAt: make([]time.Duration, rails), load: make([]int, rails),
	}
}

func (m *refRailModel) pick(now time.Duration, up func(int) bool) (int, bool) {
	// Port observation: a locally down port on a healthy rail marks it down.
	for r := 0; r < m.rails; r++ {
		if !m.down[r] && !up(r) {
			m.down[r], m.probing[r], m.failedAt[r] = true, false, now
		}
	}
	// Half-open probe: lowest cooled-down rail with an active port.
	for r := 0; r < m.rails; r++ {
		if m.down[r] && !m.probing[r] && up(r) && now-m.failedAt[r] >= m.cooldown {
			m.probing[r] = true
			return r, true
		}
	}
	// Least-loaded healthy, preferred rail wins within a 1-call slack.
	best := -1
	for r := 0; r < m.rails; r++ {
		if m.down[r] || !up(r) {
			continue
		}
		if best < 0 || m.load[r] < m.load[best] {
			best = r
		}
	}
	if best < 0 {
		return m.preferred, false
	}
	if p := m.preferred; !m.down[p] && up(p) && m.load[p] <= m.load[best]+1 {
		return p, false
	}
	return best, false
}

func (m *refRailModel) onSuccess(rail int) { m.down[rail], m.probing[rail] = false, false }
func (m *refRailModel) onFailure(rail int, now time.Duration) bool {
	m.down[rail], m.probing[rail], m.failedAt[rail] = true, false, now
	for r := 0; r < m.rails; r++ {
		if !m.down[r] {
			return false
		}
	}
	return true
}
func (m *refRailModel) downCount() int {
	n := 0
	for _, d := range m.down {
		if d {
			n++
		}
	}
	return n
}

// TestRailSetMatchesReferenceModel drives railSet and the reference model
// with the same seeded operation stream — picks under randomly flapping port
// states, successes, failures, load churn — and asserts at every step that
// the selector's decision, widen verdict, and externally visible health state
// match the model, and that the rpc_rail_unhealthy gauge tracks the true
// down-rail count.
func TestRailSetMatchesReferenceModel(t *testing.T) {
	for _, rails := range []int{2, 3, 4} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(rails)))
			reg := metrics.New()
			cm := newClientMetrics(reg)
			pref := rng.Intn(rails)
			const cooldown = 100 * time.Millisecond
			rs := newRailSet(rails, pref, cooldown, &cm)
			ref := newRefRailModel(rails, pref, cooldown)
			gauge := reg.Gauge(mRailUnhealthy)

			portUp := make([]bool, rails)
			for r := range portUp {
				portUp[r] = true
			}
			up := func(r int) bool { return portUp[r] }

			now := time.Duration(0)
			for step := 0; step < 2000; step++ {
				now += time.Duration(rng.Intn(20)) * time.Millisecond
				switch op := rng.Intn(10); {
				case op < 4: // pick
					// Flap a random port 1 time in 4.
					if rng.Intn(4) == 0 {
						portUp[rng.Intn(rails)] = rng.Intn(2) == 0
					}
					gotRail, gotProbe := rs.pick(now, up)
					wantRail, wantProbe := ref.pick(now, up)
					if gotRail != wantRail || gotProbe != wantProbe {
						t.Fatalf("rails=%d seed=%d step=%d: pick = (%d, %v), reference model says (%d, %v)",
							rails, seed, step, gotRail, gotProbe, wantRail, wantProbe)
					}
					if gotRail < 0 || gotRail >= rails {
						t.Fatalf("pick returned out-of-range rail %d", gotRail)
					}
				case op < 6: // success on a random rail
					r := rng.Intn(rails)
					rs.onSuccess(r)
					ref.onSuccess(r)
				case op < 8: // failure on a random rail
					r := rng.Intn(rails)
					got := rs.onFailure(r, now)
					want := ref.onFailure(r, now)
					if got != want {
						t.Fatalf("rails=%d seed=%d step=%d: onFailure(%d) widen = %v, want %v",
							rails, seed, step, r, got, want)
					}
				case op < 9: // load acquire
					r := rng.Intn(rails)
					rs.acquire(r)
					ref.load[r]++
				default: // load release (no-op at zero, as takeCall guards)
					r := rng.Intn(rails)
					rs.release(r)
					if ref.load[r] > 0 {
						ref.load[r]--
					}
				}
				if got, want := int(gauge.Value()), ref.downCount(); got != want {
					t.Fatalf("rails=%d seed=%d step=%d: rpc_rail_unhealthy = %d, model has %d rails down",
						rails, seed, step, got, want)
				}
				for r := 0; r < rails; r++ {
					if rs.st[r].down != ref.down[r] || rs.load[r] != ref.load[r] {
						t.Fatalf("rails=%d seed=%d step=%d rail %d: state (down=%v load=%d) diverged from model (down=%v load=%d)",
							rails, seed, step, r, rs.st[r].down, rs.load[r], ref.down[r], ref.load[r])
					}
				}
			}
		}
	}
}

// TestRailSetSingleRailGate asserts the activation gate: clients on plain
// networks — and on RailDialers reporting one rail — never allocate a rail
// selector, keeping the historical single-path code byte-identical.
func TestRailSetSingleRailGate(t *testing.T) {
	c := NewClient(nil, Options{})
	if rs := c.railSet("node0:8020"); rs != nil {
		t.Fatal("railSet allocated for a nil (non-RailDialer) network")
	}
}
