package core

import (
	"rpcoib/internal/bufpool"
	"rpcoib/internal/wire"
)

// RDMAOutputStream is the paper's Java-IO-compatible output stream that
// serializes directly into a registered native buffer from the two-level
// pool, bypassing the JVM heap. If the serialized object outgrows the
// buffer, the stream re-gets a doubled buffer from the pool (counted, and
// rare once the per-call-kind history warms up). It implements
// wire.ByteSink, so any Writable serializes onto it unchanged.
type RDMAOutputStream struct {
	pool   *bufpool.ShadowPool
	key    string
	buf    *bufpool.Buffer
	n      int
	regets int
	copied int64
}

// NewRDMAOutputStream acquires a history-sized buffer for call kind key.
func NewRDMAOutputStream(pool *bufpool.ShadowPool, key string) *RDMAOutputStream {
	s := new(RDMAOutputStream)
	s.Reset(pool, key)
	return s
}

// Reset starts the stream over for call kind key, as NewRDMAOutputStream
// would a fresh one. The engine keeps one stream per record that serializes
// (a connection's send side, a server call) and resets it per message; the
// previous message's buffer must have been Released.
func (s *RDMAOutputStream) Reset(pool *bufpool.ShadowPool, key string) {
	*s = RDMAOutputStream{pool: pool, key: key, buf: pool.Acquire(key)}
}

// Write implements wire.ByteSink.
func (s *RDMAOutputStream) Write(p []byte) {
	for s.n+len(p) > s.buf.Cap() {
		s.copied += int64(s.n)
		s.buf = s.pool.Grow(s.buf, s.n)
		s.regets++
	}
	copy(s.buf.Data[s.n:], p)
	s.n += len(p)
}

// Buffer returns the backing registered buffer and the valid byte count.
func (s *RDMAOutputStream) Buffer() (*bufpool.Buffer, int) { return s.buf, s.n }

// Len returns the number of serialized bytes.
func (s *RDMAOutputStream) Len() int { return s.n }

// Regets returns how many doubling re-gets occurred (history misses).
func (s *RDMAOutputStream) Regets() int { return s.regets }

// CopiedBytes returns bytes moved during re-gets.
func (s *RDMAOutputStream) CopiedBytes() int64 { return s.copied }

// Release returns the buffer to the pool, updating the size history for the
// call kind so the next acquisition fits first try.
func (s *RDMAOutputStream) Release() {
	if s.buf != nil {
		s.pool.Release(s.key, s.buf, s.n)
		s.buf = nil
	}
}

var _ wire.ByteSink = (*RDMAOutputStream)(nil)
