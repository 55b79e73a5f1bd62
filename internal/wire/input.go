package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated reports a read past the end of the message.
var ErrTruncated = errors.New("wire: truncated input")

// DataInput decodes primitive values from a received message. Errors are
// sticky (in the style of bufio.Scanner): after the first failure every read
// returns a zero value, and Err reports the cause — mirroring how Hadoop's
// readFields surfaces one IOException per call.
type DataInput struct {
	buf []byte
	pos int
	err error
	ops int64
}

// NewDataInput wraps a complete received message.
func NewDataInput(buf []byte) *DataInput { return &DataInput{buf: buf} }

// Reset points the decoder at a new message, as NewDataInput would a fresh
// one: a thread that decodes message after message owns one DataInput.
func (in *DataInput) Reset(buf []byte) { *in = DataInput{buf: buf} }

// Err returns the first decoding error, or nil.
func (in *DataInput) Err() error { return in.err }

// Remaining returns the number of unread bytes.
func (in *DataInput) Remaining() int { return len(in.buf) - in.pos }

// Pos returns the read offset.
func (in *DataInput) Pos() int { return in.pos }

// Ops returns the number of primitive read operations issued.
func (in *DataInput) Ops() int64 { return in.ops }

func (in *DataInput) fail(what string) {
	if in.err == nil {
		in.err = fmt.Errorf("%w: reading %s at offset %d of %d", ErrTruncated, what, in.pos, len(in.buf))
	}
}

func (in *DataInput) need(n int, what string) bool {
	if in.err != nil {
		return false
	}
	if in.pos+n > len(in.buf) {
		in.fail(what)
		return false
	}
	return true
}

// ReadU8 reads one byte.
func (in *DataInput) ReadU8() byte {
	if !in.need(1, "byte") {
		return 0
	}
	in.ops++
	b := in.buf[in.pos]
	in.pos++
	return b
}

// ReadBool reads a one-byte boolean.
func (in *DataInput) ReadBool() bool { return in.ReadU8() != 0 }

// ReadInt32 reads a big-endian 32-bit integer.
func (in *DataInput) ReadInt32() int32 {
	if !in.need(4, "int32") {
		return 0
	}
	in.ops++
	v := int32(binary.BigEndian.Uint32(in.buf[in.pos:]))
	in.pos += 4
	return v
}

// ReadInt64 reads a big-endian 64-bit integer.
func (in *DataInput) ReadInt64() int64 {
	if !in.need(8, "int64") {
		return 0
	}
	in.ops++
	v := int64(binary.BigEndian.Uint64(in.buf[in.pos:]))
	in.pos += 8
	return v
}

// ReadFloat64 reads a big-endian IEEE-754 double.
func (in *DataInput) ReadFloat64() float64 {
	return math.Float64frombits(uint64(in.ReadInt64()))
}

// ReadVInt reads a Hadoop VInt.
func (in *DataInput) ReadVInt() int32 { return int32(in.ReadVLong()) }

// ReadVLong reads a Hadoop VLong.
func (in *DataInput) ReadVLong() int64 {
	if in.err != nil {
		return 0
	}
	v, n, ok := getVLong(in.buf[in.pos:])
	if !ok {
		in.fail("vlong")
		return 0
	}
	in.ops++
	in.pos += n
	return v
}

// ReadBytes reads exactly n raw bytes (a view into the message).
func (in *DataInput) ReadBytes(n int) []byte {
	if n < 0 {
		in.fail("negative length")
		return nil
	}
	if !in.need(n, "bytes") {
		return nil
	}
	in.ops++
	b := in.buf[in.pos : in.pos+n : in.pos+n]
	in.pos += n
	return b
}

// ReadText reads a Hadoop Text value (VInt length + UTF-8).
func (in *DataInput) ReadText() string {
	n := in.ReadVInt()
	return string(in.ReadBytes(int(n)))
}

// ReadUTF reads a Java writeUTF-style string (u16 length + UTF-8).
func (in *DataInput) ReadUTF() string { return string(in.ReadUTFBytes()) }

// ReadUTFBytes is ReadUTF returning a view into the message instead of a
// string, for a reader that only looks the name up.
func (in *DataInput) ReadUTFBytes() []byte {
	if !in.need(2, "utf length") {
		return nil
	}
	in.ops++
	n := int(binary.BigEndian.Uint16(in.buf[in.pos:]))
	in.pos += 2
	return in.ReadBytes(n)
}
