package wire

// DefaultInitialBufferSize is the initial internal buffer size of a client
// side DataOutputBuffer: 32 bytes, matching java.io.ByteArrayOutputStream
// and the paper's Algorithm 1 ("The default initial value of buf_len is 32
// bytes").
const DefaultInitialBufferSize = 32

// ServerInitialBufferSize matches the Hadoop RPC server's 10 KB initial
// response buffer the paper discusses in Section II-A.
const ServerInitialBufferSize = 10240

// BufferStats counts the memory traffic a buffer performed. The simulator
// converts these exact counts into virtual CPU time; Go benchmarks observe
// them directly.
type BufferStats struct {
	// Adjustments is the number of times Algorithm 1 reallocated the
	// internal buffer (the paper's "Avg. Mem Adjustment Times" column).
	Adjustments int64
	// AllocBytes is the total bytes of fresh buffer space allocated,
	// including the initial allocation.
	AllocBytes int64
	// Allocs is the number of distinct allocations.
	Allocs int64
	// MovedBytes is the total existing data copied during reallocations
	// (step 2 of Algorithm 1).
	MovedBytes int64
	// WrittenBytes is the total payload bytes appended (step 3).
	WrittenBytes int64
}

// DataOutputBuffer is the baseline Hadoop serialization buffer: a growable
// byte array that starts small and, when written past capacity, reallocates
// to max(2*cap, needed) and copies the old contents — the paper's
// Algorithm 1, implemented verbatim. Every reallocation and copy is counted
// so the cost of the baseline design is measured, not estimated.
type DataOutputBuffer struct {
	buf   []byte
	count int
	stats BufferStats
}

// NewDataOutputBuffer returns a buffer with the default 32-byte initial
// capacity used by the Hadoop RPC client.
func NewDataOutputBuffer() *DataOutputBuffer {
	return NewDataOutputBufferSize(DefaultInitialBufferSize)
}

// NewDataOutputBufferSize returns a buffer with the given initial capacity.
func NewDataOutputBufferSize(initial int) *DataOutputBuffer {
	if initial < 1 {
		initial = 1
	}
	d := &DataOutputBuffer{buf: make([]byte, initial)}
	d.stats.Allocs++
	d.stats.AllocBytes += int64(initial)
	return d
}

// Write implements ByteSink via Algorithm 1:
//
//	new_count = cur_count + len
//	if new_count > buf_len:
//	    new_buf_len = max(buf_len*2, new_count)   // step 1: reallocate
//	    copy old data to new buf                   // step 2
//	copy new data                                  // step 3
func (d *DataOutputBuffer) Write(p []byte) {
	newCount := d.count + len(p)
	if newCount > len(d.buf) {
		newLen := len(d.buf) * 2
		if newCount > newLen {
			newLen = newCount
		}
		newBuf := make([]byte, newLen)
		copy(newBuf, d.buf[:d.count])
		d.stats.Adjustments++
		d.stats.Allocs++
		d.stats.AllocBytes += int64(newLen)
		d.stats.MovedBytes += int64(d.count)
		d.buf = newBuf
	}
	copy(d.buf[d.count:], p)
	d.count = newCount
	d.stats.WrittenBytes += int64(len(p))
}

// Data returns the serialized bytes written so far (a view, not a copy).
func (d *DataOutputBuffer) Data() []byte { return d.buf[:d.count] }

// Len returns the number of valid bytes.
func (d *DataOutputBuffer) Len() int { return d.count }

// Cap returns the current internal buffer capacity.
func (d *DataOutputBuffer) Cap() int { return len(d.buf) }

// Reset forgets the contents but keeps the buffer (Hadoop reuses server-side
// buffers this way between calls on a connection).
func (d *DataOutputBuffer) Reset() { d.count = 0 }

// Stats returns the accumulated memory-traffic counters.
func (d *DataOutputBuffer) Stats() BufferStats { return d.stats }

// TakeStats returns the counters and zeroes them (per-call accounting).
func (d *DataOutputBuffer) TakeStats() BufferStats {
	s := d.stats
	d.stats = BufferStats{}
	return s
}
