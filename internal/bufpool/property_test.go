package bufpool

import (
	"fmt"
	"math/rand"
	"testing"
)

// Property-based tests: seeded random operation sequences against a
// straightforward reference model. The pool's bookkeeping invariants must
// hold after every step, for every seed.

// poolModel mirrors what the NativePool promises, tracked independently.
type poolModel struct {
	outstanding int // buffers handed out and not yet returned
	registered  int64
	freePerSize map[int]int
}

// checkPoolInvariants cross-checks pool state against the model and the
// pool's own internal consistency rules.
func checkPoolInvariants(t *testing.T, p *NativePool, m *poolModel, step int) {
	t.Helper()
	s := p.StatsSnapshot()
	if got := s.Gets - s.Puts; got != int64(m.outstanding) {
		t.Fatalf("step %d: outstanding %d, model %d", step, got, m.outstanding)
	}
	if s.BytesRegistered != m.registered {
		t.Fatalf("step %d: registered %d, model %d", step, s.BytesRegistered, m.registered)
	}
	if s.BytesRegistered > s.PeakRegistered {
		t.Fatalf("step %d: registered %d above peak %d", step, s.BytesRegistered, s.PeakRegistered)
	}
	if s.Hits+s.Misses+s.Oversize+s.Denied != s.Gets {
		t.Fatalf("step %d: get outcomes %d+%d+%d+%d != gets %d",
			step, s.Hits, s.Misses, s.Oversize, s.Denied, s.Gets)
	}
	if s.DoubleFrees != 0 {
		t.Fatalf("step %d: %d double frees from a well-behaved caller", step, s.DoubleFrees)
	}
	free := p.FreeBuffers()
	for size, n := range free {
		if want := m.freePerSize[size]; n != want {
			t.Fatalf("step %d: class %d has %d free, model %d", step, size, n, want)
		}
	}
}

// TestPropertyNativePoolRandomOps drives random Get/Put/limit sequences and
// verifies the size-class invariants after every operation.
func TestPropertyNativePoolRandomOps(t *testing.T) {
	const maxClass = 1 << 20
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := NewNativePool(maxClass)
			m := &poolModel{freePerSize: map[int]int{}}
			var held []*Buffer
			var limit int64

			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(10); {
				case op < 5: // Get, biased toward pool-class sizes
					size := 1 << (5 + rng.Intn(17)) // 32 .. 4M (some oversize)
					if rng.Intn(4) == 0 {
						size += rng.Intn(size) // off-power-of-two
					}
					b := p.Get(size)
					if b.Cap() < size {
						t.Fatalf("step %d: Get(%d) returned cap %d", step, size, b.Cap())
					}
					cs := p.ClassSize(size)
					switch {
					case size > maxClass:
						if b.Registered() {
							t.Fatalf("step %d: oversize Get(%d) registered", step, size)
						}
					case b.Registered():
						if b.Cap() != cs {
							t.Fatalf("step %d: Get(%d) cap %d, want class %d", step, size, b.Cap(), cs)
						}
						if m.freePerSize[cs] > 0 {
							m.freePerSize[cs]-- // hit
						} else {
							m.registered += int64(cs) // miss registers fresh memory
						}
					default: // denied by the registered-memory cap
						if limit == 0 || m.registered+int64(cs) <= limit {
							t.Fatalf("step %d: Get(%d) denied with limit %d registered %d",
								step, size, limit, m.registered)
						}
					}
					m.outstanding++
					held = append(held, b)
				case op < 8: // Put a random held buffer
					if len(held) == 0 {
						continue
					}
					i := rng.Intn(len(held))
					b := held[i]
					held[i] = held[len(held)-1]
					held = held[:len(held)-1]
					if b.Registered() {
						m.freePerSize[b.Cap()]++
					}
					p.Put(b)
					m.outstanding--
				case op < 9: // flip the registered-memory cap
					if rng.Intn(2) == 0 {
						limit = 0
					} else {
						limit = int64(1<<20) + rng.Int63n(1<<22)
					}
					p.SetRegisteredLimit(limit)
				default: // double free attempt must be refused and not corrupt
					if len(held) == 0 {
						continue
					}
					i := rng.Intn(len(held))
					b := held[i]
					if !b.Registered() {
						continue
					}
					held[i] = held[len(held)-1]
					held = held[:len(held)-1]
					p.Put(b)
					m.outstanding--
					m.freePerSize[b.Cap()]++
					before := p.StatsSnapshot()
					p.Put(b) // the double free
					after := p.StatsSnapshot()
					if after.DoubleFrees != before.DoubleFrees+1 || after.Puts != before.Puts {
						t.Fatalf("step %d: double free miscounted: %+v -> %+v", step, before, after)
					}
					// Re-acquire so the checker (which assumes a clean caller)
					// sees DoubleFrees only through its own ledger.
					nb := p.Get(b.Cap())
					if nb != b {
						// LIFO free list must hand the same buffer back.
						t.Fatalf("step %d: free list not LIFO after double free", step)
					}
					m.freePerSize[b.Cap()]--
					m.outstanding++
					held = append(held, nb)
					// The model tolerates the counted double free below.
					s := p.StatsSnapshot()
					if s.Gets-s.Puts != int64(m.outstanding) {
						t.Fatalf("step %d: double free skewed outstanding", step)
					}
					continue
				}
				if s := p.StatsSnapshot(); s.DoubleFrees == 0 {
					checkPoolInvariants(t, p, m, step)
				} else {
					// After the first deliberate double free only the balance
					// invariants are cross-checked (the strict checker treats
					// any double free as a failure, which is its job).
					if got := s.Gets - s.Puts; got != int64(m.outstanding) {
						t.Fatalf("step %d: outstanding %d, model %d", step, got, m.outstanding)
					}
					if s.BytesRegistered != m.registered {
						t.Fatalf("step %d: registered %d, model %d", step, s.BytesRegistered, m.registered)
					}
				}
			}
			// Return everything: the pool must balance exactly.
			for _, b := range held {
				if b.Registered() {
					m.freePerSize[b.Cap()]++
				}
				p.Put(b)
				m.outstanding--
			}
			if n := p.Outstanding(); n != 0 {
				t.Fatalf("outstanding %d after returning everything", n)
			}
		})
	}
}

// shadowModel is the reference implementation of the history rule
// (ShrinkAfter): raise to actual on growth; after ShrinkAfter calls in a row
// of at most half the record, lower it to the largest of them, floored at the
// minimum class; any other call restarts the run.
type shadowModel struct {
	rec, run, largest int
	seen              bool
}

func (m *shadowModel) note(actual int) {
	if !m.seen || actual > m.rec {
		*m = shadowModel{rec: actual, seen: true}
		return
	}
	if 2*actual > m.rec || m.rec <= MinClassSize {
		m.run, m.largest = 0, 0
		return
	}
	m.largest = max(m.largest, actual)
	if m.run++; m.run == ShrinkAfter {
		*m = shadowModel{rec: max(m.largest, MinClassSize), seen: true}
	}
}

// TestPropertyShadowHistoryTracksLastSize drives random acquire/grow/release
// sequences per key and checks the recorded history against the reference
// rule after every release, plus the native balance at the end. Each key
// jitters around a level that moves now and then by up to a factor of 2^13,
// so growth, runs that a larger call breaks, and shrinks all occur.
func TestPropertyShadowHistoryTracksLastSize(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			native := NewNativePool(1 << 20)
			sp := NewShadowPool(native, PolicyHistory)
			keys := []string{"proto.A+ping", "proto.A+submit", "proto.B+heartbeat"}
			model := map[string]*shadowModel{}
			level := map[string]int{}
			for _, k := range keys {
				model[k] = &shadowModel{}
			}

			for step := 0; step < 6000; step++ {
				key := keys[rng.Intn(len(keys))]
				b := sp.Acquire(key)
				// Acquire must honor history: a recorded size fits in the
				// handed buffer's class (unseen keys get the minimum class).
				want := MinClassSize
				if m := model[key]; m.seen {
					want = m.rec
				}
				if b.Registered() && b.Cap() < native.ClassSize(want) && want <= 1<<20 {
					t.Fatalf("step %d: %s acquired cap %d below history class %d",
						step, key, b.Cap(), native.ClassSize(want))
				}
				// Serialize a random payload, growing as the writer would.
				if level[key] == 0 || rng.Intn(100) == 0 {
					level[key] = 1 << (3 + rng.Intn(14)) // 8 .. 64K
				}
				actual := level[key]/2 + rng.Intn(level[key])
				if rng.Intn(50) == 0 {
					actual *= 3
				}
				for b.Cap() < actual {
					b = sp.Grow(b, b.Cap())
				}
				model[key].note(actual)
				sp.Release(key, b, actual)
				if got := sp.HistorySize(key); got != model[key].rec {
					t.Fatalf("step %d: %s history %d, model %d (actual %d)",
						step, key, got, model[key].rec, actual)
				}
			}
			if n := native.Outstanding(); n != 0 {
				t.Fatalf("native pool leaked %d buffers through the shadow layer", n)
			}
			if s := native.StatsSnapshot(); s.DoubleFrees != 0 {
				t.Fatalf("shadow layer double-freed %d buffers", s.DoubleFrees)
			}
			if sp.Keys() != len(keys) {
				t.Fatalf("tracked %d keys, used %d", sp.Keys(), len(keys))
			}
			if st := sp.StatsSnapshot(); st.Shrinks == 0 || st.Grows == 0 {
				t.Fatalf("the sequence never exercised the rule: shrinks=%d grows=%d", st.Shrinks, st.Grows)
			}
		})
	}
}

// TestPropertyShadowPoliciesBalanceNative: every sizing policy, including
// no-pool, must keep the native pool balanced across random workloads.
func TestPropertyShadowPoliciesBalanceNative(t *testing.T) {
	for _, policy := range []Policy{PolicyHistory, PolicyFixedSmall, PolicyFixedLarge, PolicyNoPool} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			native := NewNativePool(1 << 20)
			sp := NewShadowPool(native, policy)
			for step := 0; step < 1000; step++ {
				key := fmt.Sprintf("proto+m%d", rng.Intn(4))
				b := sp.Acquire(key)
				actual := 1 << (3 + rng.Intn(12))
				for b.Cap() < actual {
					b = sp.Grow(b, b.Cap())
				}
				sp.Release(key, b, actual)
			}
			if n := native.Outstanding(); n != 0 {
				t.Fatalf("policy %s leaked %d native buffers", policy, n)
			}
		})
	}
}
