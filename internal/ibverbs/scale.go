// Connection scale-out accounting (DESIGN.md S23): the per-connection QP +
// pre-posted-recv-buffer footprint of the paper's design is linear in client
// count, which is the wall RDMAvisor (PAPERS.md) attacks with shared,
// multiplexed RDMA resources. Three accounting primitives let the NameNode
// hammer (internal/bench) bound that footprint; the verbs endpoints in
// ibverbs.go keep the paper's one QP per connection:
//
//   - SRQ: a shared receive queue. A bounded pool of posted receive WQEs
//     (each backed by one registered buffer) serves every attached client,
//     with per-client credit accounting so a single hot peer cannot starve
//     the rest. Exhaustion is admission control: TryConsume refuses and the
//     caller sheds the call through the S19 busy/backoff path before a WQE
//     is consumed.
//
//   - QPMux: a bounded table of physical queue pairs multiplexing many
//     logical streams. The table is pure accounting — which stream rides
//     which QP — with no framed streams on the wire.
//
//   - MemoryBudget: a per-server cap on registered bytes. The SRQ reserves
//     its buffer pool from the budget at construction (clamping its depth to
//     fit), and the RPC server consults Exhausted through
//     core.Options.Overloaded to shed with a retriable "too busy" instead of
//     registering past the cap.
//
// All three are safe for concurrent use and deterministic under simulation:
// state changes happen in kernel/process context in event order, and every
// instrument is a counter or a single-writer gauge so sharded registries
// merge identically for any layout.
package ibverbs

import (
	"sync"

	"rpcoib/internal/metrics"
)

// Metric family names, as package-level consts for the rpcoiblint
// metricnames analyzer's golden-file enumeration.
const (
	mSRQDepth        = "rpc_ib_srq_depth"
	mSRQPosted       = "rpc_ib_srq_posted"
	mSRQPostedPeak   = "rpc_ib_srq_posted_peak"
	mSRQConsumed     = "rpc_ib_srq_consumed_total"
	mSRQReleased     = "rpc_ib_srq_released_total"
	mSRQRNR          = "rpc_ib_srq_rnr_total"
	mSRQCreditRNR    = "rpc_ib_srq_credit_rnr_total"
	mSRQAttached     = "rpc_ib_srq_attached"
	mSRQRegBytes     = "rpc_ib_srq_registered_bytes"
	mSRQBudgetBytes  = "rpc_ib_srq_budget_bytes"
	mSRQBudgetUsed   = "rpc_ib_srq_budget_used_bytes"
	mSRQBudgetDenied = "rpc_ib_srq_budget_denied_total"
	mBudgetDoubleRel = "rpc_ib_budget_double_release_total"

	mQPMuxCap           = "rpc_ib_qp_mux_cap"
	mQPMuxQPs           = "rpc_ib_qp_mux_qps"
	mQPMuxQPsPeak       = "rpc_ib_qp_mux_qps_peak"
	mQPMuxStreams       = "rpc_ib_qp_mux_streams"
	mQPMuxStreamsOpened = "rpc_ib_qp_mux_streams_opened_total"
	mQPMuxStreamsClosed = "rpc_ib_qp_mux_streams_closed_total"
)

// MemoryBudget caps the registered (pinned) memory a server may hold. It is
// plain reservation accounting: consumers TryReserve before registering and
// Release when the memory is returned. Exhausted is the admission-control
// face — wire it to core.Options.Overloaded so a server out of registered
// memory sheds calls with a retriable busy instead of registering past the
// cap (pinnable pages are a host-wide resource; overshooting evicts someone
// else's).
type MemoryBudget struct {
	mu      sync.Mutex
	cap     int64
	used    int64
	denied  int64
	doubles int64
	lenient bool
	bCap    *metrics.Gauge
	bUsed   *metrics.Gauge
	bDen    *metrics.Counter
	bDouble *metrics.Counter
}

// NewMemoryBudget creates a budget of capBytes (<= 0 means unlimited). The
// budget starts strict: releasing below zero panics, because under the
// deterministic simulation a double release is always an engine bug the seed
// should crash on. Real-mode servers call SetStrict(false) to survive it.
func NewMemoryBudget(capBytes int64) *MemoryBudget {
	if capBytes < 0 {
		capBytes = 0
	}
	return &MemoryBudget{cap: capBytes}
}

// SetStrict selects the double-release policy. Strict (the default, and what
// simulation keeps) panics when Release drops the reservation below zero.
// Lenient — for real deployments, where crashing the server over an
// accounting bug is worse than the bug — clamps to zero and counts the event
// on rpc_ib_budget_double_release_total so operators see it.
func (b *MemoryBudget) SetStrict(strict bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lenient = !strict
}

// DoubleReleases returns how many lenient-mode double releases were clamped.
func (b *MemoryBudget) DoubleReleases() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.doubles
}

// Instrument mirrors the budget into r (rpc_ib_srq_budget_* family, plus the
// double-release counter the lenient policy meters).
func (b *MemoryBudget) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bCap = r.Gauge(mSRQBudgetBytes)
	b.bUsed = r.Gauge(mSRQBudgetUsed)
	b.bDen = r.Counter(mSRQBudgetDenied)
	b.bDouble = r.Counter(mBudgetDoubleRel)
	b.bCap.Set(b.cap)
	b.bUsed.Set(b.used)
}

// Cap returns the budget limit (0 = unlimited).
func (b *MemoryBudget) Cap() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cap
}

// Used returns the bytes currently reserved.
func (b *MemoryBudget) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Denied returns how many reservations were refused.
func (b *MemoryBudget) Denied() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.denied
}

// TryReserve claims n bytes, reporting false (and counting the denial) when
// the claim would exceed the cap.
func (b *MemoryBudget) TryReserve(n int64) bool {
	if n < 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cap > 0 && b.used+n > b.cap {
		b.denied++
		b.bDen.Inc()
		return false
	}
	b.used += n
	b.bUsed.Set(b.used)
	return true
}

// Release returns n reserved bytes. Releasing more than is reserved is a
// double release: strict budgets (simulation) panic so the chaos seed pins
// the bug; lenient ones (SetStrict(false), real mode) clamp to zero and
// count it on rpc_ib_budget_double_release_total.
func (b *MemoryBudget) Release(n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.used -= n
	if b.used < 0 {
		if !b.lenient {
			panic("ibverbs: memory budget released below zero")
		}
		b.used = 0
		b.doubles++
		b.bDouble.Inc()
	}
	b.bUsed.Set(b.used)
}

// SetCap changes the limit (fault injection models a host losing pinnable
// pages). Shrinking below the current reservation does not reclaim anything;
// it just makes the budget exhausted until enough is released.
func (b *MemoryBudget) SetCap(capBytes int64) {
	if capBytes < 0 {
		capBytes = 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cap = capBytes
	b.bCap.Set(b.cap)
}

// Exhausted reports whether the budget has no headroom left. The signature
// matches core.Options.Overloaded, the S19 shed path's admission hook.
func (b *MemoryBudget) Exhausted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cap > 0 && b.used >= b.cap
}

// SRQ is one device's shared receive queue: depth posted receive WQEs, each
// backed by one bufBytes registered buffer reserved from the budget, shared
// by every attached endpoint with a per-endpoint credit cap. Registered
// memory is therefore O(depth), not O(endpoints) — the tentpole invariant
// the scale tests assert.
type SRQ struct {
	mu       sync.Mutex
	depth    int
	perEP    int
	bufBytes int
	budget   *MemoryBudget
	reserved int64 // bytes actually granted by the budget; released by Close

	posted   int
	peak     int
	attached int

	gDepth    *metrics.Gauge
	gPosted   *metrics.Gauge
	gPeak     *metrics.Gauge
	gAttached *metrics.Gauge
	gRegBytes *metrics.Gauge
	cConsumed *metrics.Counter
	cReleased *metrics.Counter
	cRNR      *metrics.Counter
	cCredRNR  *metrics.Counter
}

// SRQCredit is one endpoint's (or logical stream's) account against a shared
// receive queue: how many posted WQEs it currently holds. Credits survive
// Detach so in-flight receives can still be released after their owner is
// evicted from a connection cache.
type SRQCredit struct {
	q    *SRQ
	held int
}

// NewSRQ builds a shared receive queue of depth WQEs of bufBytes each, with
// at most perEPCredit WQEs held by any one endpoint (0 = no per-endpoint
// cap). When budget is non-nil the buffer pool is reserved from it, clamping
// depth down to what fits — a server never registers past its budget.
func NewSRQ(depth, perEPCredit, bufBytes int, budget *MemoryBudget) *SRQ {
	if depth < 1 {
		depth = 1
	}
	if bufBytes < 0 {
		bufBytes = 0
	}
	var reserved int64
	if budget != nil && bufBytes > 0 {
		for depth > 0 && !budget.TryReserve(int64(depth)*int64(bufBytes)) {
			depth /= 2
		}
		if depth > 0 {
			reserved = int64(depth) * int64(bufBytes)
		} else {
			depth = 1
			// A floor of one WQE keeps the queue usable, but it only counts
			// as reserved if the budget actually grants it: recording an
			// unreserved floor would make Close release bytes the budget
			// never lent — the double-release underflow the regmem analyzer
			// flagged here.
			if budget.TryReserve(int64(bufBytes)) {
				reserved = int64(bufBytes)
			}
		}
	}
	return &SRQ{depth: depth, perEP: perEPCredit, bufBytes: bufBytes, budget: budget, reserved: reserved}
}

// Reserved returns the bytes the queue actually holds from its budget (zero
// when unbudgeted, or when even the one-WQE floor was denied).
func (q *SRQ) Reserved() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.reserved
}

// Close returns the queue's budget reservation. Idempotent; the queue stays
// usable for draining (a closed SRQ is an accounting event, not a teardown
// of in-flight receives).
func (q *SRQ) Close() {
	q.mu.Lock()
	rel := q.reserved
	q.reserved = 0
	q.mu.Unlock()
	if rel > 0 && q.budget != nil {
		q.budget.Release(rel)
	}
}

// Instrument mirrors the queue into r (rpc_ib_srq_* family). The depth and
// registered-bytes gauges are set once here; posted/peak/attached are
// single-writer from the owning device's context.
func (q *SRQ) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.gDepth = r.Gauge(mSRQDepth)
	q.gPosted = r.Gauge(mSRQPosted)
	q.gPeak = r.Gauge(mSRQPostedPeak)
	q.gAttached = r.Gauge(mSRQAttached)
	q.gRegBytes = r.Gauge(mSRQRegBytes)
	q.cConsumed = r.Counter(mSRQConsumed)
	q.cReleased = r.Counter(mSRQReleased)
	q.cRNR = r.Counter(mSRQRNR)
	q.cCredRNR = r.Counter(mSRQCreditRNR)
	q.gDepth.Set(int64(q.depth))
	q.gRegBytes.Set(int64(q.depth) * int64(q.bufBytes))
}

// Depth returns the posted-WQE capacity.
func (q *SRQ) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}

// Posted returns the WQEs currently consumed (in-flight or unreleased).
func (q *SRQ) Posted() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.posted
}

// PostedPeak returns the high-water mark of Posted.
func (q *SRQ) PostedPeak() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.peak
}

// RegisteredBytes returns the queue's registered buffer footprint — fixed at
// construction, independent of how many endpoints attach.
func (q *SRQ) RegisteredBytes() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int64(q.depth) * int64(q.bufBytes)
}

// Attach opens a credit account for one endpoint.
func (q *SRQ) Attach() *SRQCredit {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.attached++
	q.gAttached.Set(int64(q.attached))
	return &SRQCredit{q: q}
}

// Detach closes the account. Held WQEs stay consumed until each in-flight
// receive releases; only the attachment gauge drops now.
func (q *SRQ) Detach(c *SRQCredit) {
	if c == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.attached--
	q.gAttached.Set(int64(q.attached))
}

// TryConsume claims one posted WQE for c, refusing (without consuming) when
// the shared queue or the credit is exhausted: the caller sheds the message
// through the busy path instead.
func (q *SRQ) TryConsume(c *SRQCredit) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.posted >= q.depth {
		q.cRNR.Inc()
		return false
	}
	if q.perEP > 0 && c != nil && c.held >= q.perEP {
		q.cCredRNR.Inc()
		return false
	}
	q.posted++
	if c != nil {
		c.held++
	}
	if q.posted > q.peak {
		q.peak = q.posted
		q.gPeak.Set(int64(q.peak))
	}
	q.gPosted.Set(int64(q.posted))
	q.cConsumed.Inc()
	return true
}

// Release reposts one WQE consumed by c (the receiver copied the data out or
// the message was reclaimed).
func (q *SRQ) Release(c *SRQCredit) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.posted--
	if q.posted < 0 {
		panic("ibverbs: SRQ released below zero")
	}
	if c != nil {
		c.held--
		if c.held < 0 {
			panic("ibverbs: SRQ credit released below zero")
		}
	}
	q.gPosted.Set(int64(q.posted))
	q.cReleased.Inc()
}

// Held returns the WQEs the credit currently holds.
func (c *SRQCredit) Held() int {
	c.q.mu.Lock()
	defer c.q.mu.Unlock()
	return c.held
}

// QPMux is a bounded table of physical queue pairs multiplexing logical
// streams: Attach assigns a stream to the least-loaded QP, opening a new one
// only while the table is under its cap, so the physical QP count is
// O(min(streams, cap)) no matter how many logical endpoints come and go.
type QPMux struct {
	mu      sync.Mutex
	cap     int
	load    []int // streams per open QP
	streams int
	peak    int

	gCap     *metrics.Gauge
	gQPs     *metrics.Gauge
	gPeak    *metrics.Gauge
	gStreams *metrics.Gauge
	cOpened  *metrics.Counter
	cClosed  *metrics.Counter
}

// NewQPMux creates a table of at most capQPs physical queue pairs (min 1).
func NewQPMux(capQPs int) *QPMux {
	if capQPs < 1 {
		capQPs = 1
	}
	return &QPMux{cap: capQPs}
}

// Instrument mirrors the table into r (rpc_ib_qp_mux_* family).
func (m *QPMux) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gCap = r.Gauge(mQPMuxCap)
	m.gQPs = r.Gauge(mQPMuxQPs)
	m.gPeak = r.Gauge(mQPMuxQPsPeak)
	m.gStreams = r.Gauge(mQPMuxStreams)
	m.cOpened = r.Counter(mQPMuxStreamsOpened)
	m.cClosed = r.Counter(mQPMuxStreamsClosed)
	m.gCap.Set(int64(m.cap))
	m.gQPs.Set(int64(len(m.load)))
}

// QPs returns the physical queue pairs currently open.
func (m *QPMux) QPs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.load)
}

// QPsPeak returns the high-water mark of QPs — by construction never above
// Cap, which is the assertion the scale tests make.
func (m *QPMux) QPsPeak() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// Streams returns the logical streams currently attached.
func (m *QPMux) Streams() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.streams
}

// Attach assigns a new stream to a QP slot and returns the slot index: a new
// QP while under the cap, else the least-loaded existing one (lowest index on
// ties, so assignment is deterministic). isNew tells the caller whether a
// physical QP must actually be opened.
func (m *QPMux) Attach() (qp int, isNew bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.load) < m.cap {
		m.load = append(m.load, 1)
		qp, isNew = len(m.load)-1, true
		if len(m.load) > m.peak {
			m.peak = len(m.load)
			m.gPeak.Set(int64(m.peak))
		}
		m.gQPs.Set(int64(len(m.load)))
	} else {
		qp = 0
		for i := 1; i < len(m.load); i++ {
			if m.load[i] < m.load[qp] {
				qp = i
			}
		}
		m.load[qp]++
	}
	m.streams++
	m.gStreams.Set(int64(m.streams))
	m.cOpened.Inc()
	return qp, isNew
}

// Detach releases a stream's slot on QP qp. The physical QP stays open (the
// table is already bounded); only the stream accounting drops, which is what
// lets an evicted idle client's slot be handed to the next arrival.
func (m *QPMux) Detach(qp int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if qp < 0 || qp >= len(m.load) {
		panic("ibverbs: QPMux detach from unknown QP")
	}
	m.load[qp]--
	if m.load[qp] < 0 {
		panic("ibverbs: QPMux detached below zero")
	}
	m.streams--
	m.gStreams.Set(int64(m.streams))
	m.cClosed.Inc()
}
