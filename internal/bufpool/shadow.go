package bufpool

import "sync"

// Policy selects how the shadow pool sizes the buffer it hands out. History
// is the paper's design; the alternatives exist for the ablation benchmarks
// and correspond to the rejected designs discussed in Section II-A.
type Policy int

const (
	// PolicyHistory sizes buffers from per-call-kind message size history
	// (the paper's design).
	PolicyHistory Policy = iota
	// PolicyFixedSmall always starts from the 32-byte client default; large
	// calls pay repeated doubling re-gets.
	PolicyFixedSmall
	// PolicyFixedLarge always hands out a large buffer (the "10 KB server
	// buffer" approach); wastes footprint on small calls.
	PolicyFixedLarge
	// PolicyNoPool allocates a fresh buffer per call (the baseline).
	PolicyNoPool
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyHistory:
		return "history"
	case PolicyFixedSmall:
		return "fixed-small"
	case PolicyFixedLarge:
		return "fixed-large"
	case PolicyNoPool:
		return "no-pool"
	}
	return "unknown"
}

// FixedLargeSize is the buffer size PolicyFixedLarge hands out.
const FixedLargeSize = 64 * 1024

// ShrinkAfter is the hysteresis of every size record that decides how much
// memory a use is handed: a call kind's history here, a TCP connection's
// receive buffer in transport. A record grows at once to a use that does not
// fit it; it shrinks only after ShrinkAfter uses in a row that each needed at
// most half of it, to the largest of them; a use over half restarts the
// count. A constant and not a setting: it trades one re-size per ShrinkAfter
// uses at worst against holding a burst's size ShrinkAfter uses too long, and
// neither side of that is worth a knob. A kind whose sizes vary within a
// factor of two keeps one size, and one whose sizes vary more keeps its
// largest, so its buffers come from one class whose depth is discovered once.
const ShrinkAfter = 64

// ShadowStats counts shadow-pool behaviour. FirstFit is the success metric:
// calls whose first buffer was already big enough thanks to history.
type ShadowStats struct {
	Acquires int64
	FirstFit int64 // history-sized buffer fit without any re-get
	Regets   int64 // doubling re-gets during serialization
	Shrinks  int64 // history records shrunk on release
	Grows    int64 // history records grown on release
	NewKeys  int64 // first sighting of a <protocol, method> key
}

// ShadowPool is the upper level: it tracks per-key message-size history in
// the "Java layer" and acquires appropriately sized native buffers. Keys are
// the paper's tuple <protocol, method> pre-joined as "protocol+method".
type ShadowPool struct {
	mu      sync.Mutex
	native  *NativePool
	policy  Policy
	history map[string]sizeRecord
	stats   ShadowStats
	m       shadowInstruments
}

// sizeRecord is one call kind's history: size is what Acquire asks the native
// pool for; quiet counts the calls in a row that needed at most half of it,
// peak is the largest of them (ShrinkAfter).
type sizeRecord struct{ size, quiet, peak int }

// NewShadowPool layers history tracking over a native pool.
func NewShadowPool(native *NativePool, policy Policy) *ShadowPool {
	return &ShadowPool{native: native, policy: policy, history: map[string]sizeRecord{}}
}

// Native returns the underlying native pool.
func (s *ShadowPool) Native() *NativePool { return s.native }

// Acquire returns a buffer for a call of kind key. Under PolicyHistory its
// size is the recorded last-known appropriate size for that key (or the
// minimum class for unseen keys).
func (s *ShadowPool) Acquire(key string) *Buffer {
	s.mu.Lock()
	s.stats.Acquires++
	s.m.acquires.Inc()
	size := MinClassSize
	switch s.policy {
	case PolicyHistory:
		if rec, ok := s.history[key]; ok {
			size = rec.size
		} else {
			s.stats.NewKeys++
			s.m.newKeys.Inc()
		}
	case PolicyFixedSmall:
		size = MinClassSize
	case PolicyFixedLarge:
		size = FixedLargeSize
	case PolicyNoPool:
		s.mu.Unlock()
		return &Buffer{Data: make([]byte, MinClassSize), class: -1, owner: s.native}
	}
	s.mu.Unlock()
	return s.native.Get(size)
}

// Grow exchanges b for a buffer of at least double the capacity, preserving
// the first n valid bytes — the paper's "re-get a new buffer from the buffer
// pool by doubling buffer space until it is enough".
func (s *ShadowPool) Grow(b *Buffer, n int) *Buffer {
	s.mu.Lock()
	s.stats.Regets++
	s.m.regets.Inc()
	s.mu.Unlock()
	if s.policy == PolicyNoPool {
		nb := &Buffer{Data: make([]byte, b.Cap()*2), class: -1, owner: s.native, grown: true}
		copy(nb.Data, b.Data[:n])
		return nb
	}
	nb := s.native.Get(b.Cap() * 2)
	nb.grown = true
	copy(nb.Data, b.Data[:n])
	s.native.Put(b)
	return nb
}

// Release returns b and records that the call of kind key actually used
// actualSize bytes. The record follows ShrinkAfter's rule, never shrinking
// below MinClassSize (the paper's "shrink the history record of size").
func (s *ShadowPool) Release(key string, b *Buffer, actualSize int) {
	s.mu.Lock()
	if b != nil && !b.grown {
		s.stats.FirstFit++
		s.m.firstFit.Inc()
	}
	if s.policy == PolicyHistory {
		rec, ok := s.history[key]
		switch {
		case !ok || actualSize > rec.size:
			if ok {
				s.stats.Grows++
				s.m.grows.Inc()
			}
			rec = sizeRecord{size: actualSize}
		case 2*actualSize > rec.size || rec.size <= MinClassSize:
			rec.quiet, rec.peak = 0, 0 // in use at this size
		default:
			rec.peak = max(rec.peak, actualSize)
			if rec.quiet++; rec.quiet >= ShrinkAfter {
				s.stats.Shrinks++
				s.m.shrinks.Inc()
				rec = sizeRecord{size: max(rec.peak, MinClassSize)}
			}
		}
		s.history[key] = rec
		s.m.keys.Set(int64(len(s.history)))
	}
	s.mu.Unlock()
	if s.policy != PolicyNoPool {
		s.native.Put(b)
	}
}

// HistorySize returns the recorded size for key (0 if unseen).
func (s *ShadowPool) HistorySize(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.history[key].size
}

// Keys returns the number of tracked call kinds.
func (s *ShadowPool) Keys() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.history)
}

// StatsSnapshot returns a copy of the shadow counters.
func (s *ShadowPool) StatsSnapshot() ShadowStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
