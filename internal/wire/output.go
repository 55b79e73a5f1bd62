// Package wire implements Hadoop's Writable serialization model: DataOutput/
// DataInput encoders, the variable-length integer format of
// org.apache.hadoop.io.WritableUtils, the standard Writable value types, and
// — crucially for this paper — DataOutputBuffer, whose memory-adjustment
// behaviour is a verbatim port of the paper's Algorithm 1 (the doubling
// reallocation of the JVM's ByteArrayOutputStream) with instrumentation
// counting every reallocation, copy, and allocation it performs.
package wire

import (
	"encoding/binary"
	"math"
)

// ByteSink receives serialized bytes. Sinks never fail: they are in-memory
// buffers (heap or pooled/registered memory).
type ByteSink interface {
	// Write appends p to the sink.
	Write(p []byte)
}

// DataOutput encodes primitive values onto a ByteSink using Java/Hadoop wire
// conventions (big-endian fixed-width integers, Hadoop VInt/VLong, Text as
// VInt-prefixed UTF-8).
type DataOutput struct {
	sink    ByteSink
	scratch [10]byte
	ops     int64 // number of primitive write operations issued
}

// NewDataOutput wraps sink in an encoder.
func NewDataOutput(sink ByteSink) *DataOutput { return &DataOutput{sink: sink} }

// Reset points the encoder at sink with its operation count at zero, as
// NewDataOutput would a fresh one: a thread (or a connection's send lock)
// that encodes message after message owns one DataOutput.
func (o *DataOutput) Reset(sink ByteSink) { o.sink, o.ops = sink, 0 }

// Ops returns the number of primitive write operations issued so far; the
// simulator charges per-operation serialization CPU from this.
func (o *DataOutput) Ops() int64 { return o.ops }

// WriteU8 writes a single byte.
func (o *DataOutput) WriteU8(b byte) {
	o.ops++
	o.scratch[0] = b
	o.sink.Write(o.scratch[:1])
}

// WriteBool writes a boolean as one byte.
func (o *DataOutput) WriteBool(v bool) {
	if v {
		o.WriteU8(1)
	} else {
		o.WriteU8(0)
	}
}

// WriteInt32 writes a big-endian 32-bit integer.
func (o *DataOutput) WriteInt32(v int32) {
	o.ops++
	binary.BigEndian.PutUint32(o.scratch[:4], uint32(v))
	o.sink.Write(o.scratch[:4])
}

// WriteInt64 writes a big-endian 64-bit integer.
func (o *DataOutput) WriteInt64(v int64) {
	o.ops++
	binary.BigEndian.PutUint64(o.scratch[:8], uint64(v))
	o.sink.Write(o.scratch[:8])
}

// WriteFloat64 writes a big-endian IEEE-754 double.
func (o *DataOutput) WriteFloat64(v float64) {
	o.ops++
	binary.BigEndian.PutUint64(o.scratch[:8], math.Float64bits(v))
	o.sink.Write(o.scratch[:8])
}

// WriteVInt writes v in Hadoop's variable-length format (1–5 bytes).
func (o *DataOutput) WriteVInt(v int32) { o.WriteVLong(int64(v)) }

// WriteVLong writes v in Hadoop WritableUtils.writeVLong format (1–9 bytes).
func (o *DataOutput) WriteVLong(v int64) {
	o.ops++
	n := putVLong(o.scratch[:], v)
	o.sink.Write(o.scratch[:n])
}

// WriteBytes writes raw bytes with no length prefix.
func (o *DataOutput) WriteBytes(p []byte) {
	o.ops++
	o.sink.Write(p)
}

// WriteText writes a Hadoop Text value: VInt byte-length + UTF-8 bytes.
func (o *DataOutput) WriteText(s string) {
	o.WriteVInt(int32(len(s)))
	o.ops++
	o.sink.Write([]byte(s))
}

// WriteUTF writes a Java DataOutput.writeUTF-style string: unsigned 16-bit
// length + UTF-8 bytes (Hadoop RPC headers use this form).
func (o *DataOutput) WriteUTF(s string) {
	o.ops++
	binary.BigEndian.PutUint16(o.scratch[:2], uint16(len(s)))
	o.sink.Write(o.scratch[:2])
	o.ops++
	o.sink.Write([]byte(s))
}

// EncodeUTF returns s in WriteUTF's encoding, for a caller that writes the
// same string on every message.
func EncodeUTF(s string) []byte {
	p := make([]byte, 2, 2+len(s))
	binary.BigEndian.PutUint16(p, uint16(len(s)))
	return append(p, s...)
}

// WriteEncodedUTF writes a string EncodeUTF encoded, exactly as WriteUTF
// would have: the same two sink writes, the same two operations counted.
func (o *DataOutput) WriteEncodedUTF(p []byte) {
	o.ops++
	o.sink.Write(p[:2])
	o.ops++
	o.sink.Write(p[2:])
}
