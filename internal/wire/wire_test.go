package wire

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestVLongKnownEncodings(t *testing.T) {
	cases := []struct {
		v    int64
		size int
	}{
		{0, 1}, {1, 1}, {127, 1}, {-1, 1}, {-112, 1},
		{128, 2}, {255, 2}, {256, 3}, {-113, 2}, {-256, 2}, {-257, 3},
		{65535, 3}, {65536, 4},
		{math.MaxInt64, 9}, {math.MinInt64, 9},
	}
	var buf [10]byte
	for _, c := range cases {
		n := putVLong(buf[:], c.v)
		if n != c.size {
			t.Errorf("putVLong(%d) used %d bytes, want %d", c.v, n, c.size)
		}
		if got := vlongSize(c.v); got != c.size {
			t.Errorf("vlongSize(%d) = %d, want %d", c.v, got, c.size)
		}
		v, m, ok := getVLong(buf[:n])
		if !ok || v != c.v || m != n {
			t.Errorf("getVLong round trip of %d: got %d,%d,%v", c.v, v, m, ok)
		}
	}
}

func TestVLongSingleByteMatchesHadoop(t *testing.T) {
	// Hadoop stores values in [-112,127] directly as the (signed) byte.
	var buf [10]byte
	for v := int64(-112); v <= 127; v++ {
		n := putVLong(buf[:], v)
		if n != 1 || int64(int8(buf[0])) != v {
			t.Fatalf("value %d: n=%d byte=%d", v, n, int8(buf[0]))
		}
	}
}

func TestVLongPropertyRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		var buf [10]byte
		n := putVLong(buf[:], v)
		got, m, ok := getVLong(buf[:n])
		return ok && got == v && m == n && n == vlongSize(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestVLongTruncated(t *testing.T) {
	var buf [10]byte
	n := putVLong(buf[:], 1_000_000)
	for i := 0; i < n; i++ {
		if _, _, ok := getVLong(buf[:i]); ok {
			t.Fatalf("decoding %d-byte prefix of %d-byte encoding succeeded", i, n)
		}
	}
}

func TestAlgorithm1Doubling(t *testing.T) {
	// Writing 100 bytes one at a time into a 32-byte buffer must trigger
	// exactly two adjustments: 32->64 and 64->128.
	d := NewDataOutputBuffer()
	one := []byte{0xab}
	for i := 0; i < 100; i++ {
		d.Write(one)
	}
	s := d.Stats()
	if s.Adjustments != 2 {
		t.Fatalf("adjustments = %d, want 2", s.Adjustments)
	}
	if d.Cap() != 128 {
		t.Fatalf("cap = %d, want 128", d.Cap())
	}
	// Old data copied: 32 bytes at the first adjustment, 64 at the second.
	if s.MovedBytes != 32+64 {
		t.Fatalf("moved = %d, want 96", s.MovedBytes)
	}
	if s.WrittenBytes != 100 || d.Len() != 100 {
		t.Fatalf("written=%d len=%d", s.WrittenBytes, d.Len())
	}
}

func TestAlgorithm1LargeWriteFitsExactly(t *testing.T) {
	// A single write far larger than 2x capacity allocates exactly
	// new_count (max(buf_len*2, new_count) with new_count dominating).
	d := NewDataOutputBuffer()
	big := make([]byte, 1000)
	d.Write(big)
	if d.Cap() != 1000 {
		t.Fatalf("cap = %d, want 1000", d.Cap())
	}
	if d.Stats().Adjustments != 1 {
		t.Fatalf("adjustments = %d, want 1", d.Stats().Adjustments)
	}
}

func TestAlgorithm1StatusUpdateShape(t *testing.T) {
	// The paper's Table I reports ~5 adjustments for statusUpdate calls of
	// roughly 600-1000 serialized bytes built from many small writes:
	// 32->64->128->256->512->1024.
	d := NewDataOutputBuffer()
	out := NewDataOutput(d)
	for i := 0; i < 75; i++ { // 75 * 8 = 600 bytes in small pieces
		out.WriteInt64(int64(i))
	}
	if got := d.Stats().Adjustments; got != 5 {
		t.Fatalf("adjustments = %d, want 5", got)
	}
}

func TestDataOutputBufferReset(t *testing.T) {
	d := NewDataOutputBufferSize(64)
	d.Write(make([]byte, 40))
	d.Reset()
	if d.Len() != 0 || d.Cap() != 64 {
		t.Fatalf("after reset len=%d cap=%d", d.Len(), d.Cap())
	}
	d.Write(make([]byte, 60))
	if d.Stats().Adjustments != 0 {
		t.Fatal("reset buffer should not re-adjust within capacity")
	}
}

func TestPrimitiveRoundTrip(t *testing.T) {
	d := NewDataOutputBuffer()
	out := NewDataOutput(d)
	out.WriteU8(7)
	out.WriteBool(true)
	out.WriteInt32(-123456)
	out.WriteInt64(math.MaxInt64 - 5)
	out.WriteFloat64(3.14159)
	out.WriteVInt(99999)
	out.WriteVLong(-1 << 40)
	out.WriteText("héllo wörld")
	out.WriteUTF("protocol.Name")
	in := NewDataInput(d.Data())
	if in.ReadU8() != 7 || !in.ReadBool() || in.ReadInt32() != -123456 ||
		in.ReadInt64() != math.MaxInt64-5 || in.ReadFloat64() != 3.14159 ||
		in.ReadVInt() != 99999 || in.ReadVLong() != -1<<40 ||
		in.ReadText() != "héllo wörld" || in.ReadUTF() != "protocol.Name" {
		t.Fatal("round trip mismatch")
	}
	if in.Err() != nil {
		t.Fatalf("err = %v", in.Err())
	}
	if in.Remaining() != 0 {
		t.Fatalf("remaining = %d", in.Remaining())
	}
}

func TestDataInputStickyError(t *testing.T) {
	in := NewDataInput([]byte{1, 2})
	in.ReadInt64() // truncated
	if in.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Subsequent reads must return zero values, not panic.
	if in.ReadInt32() != 0 || in.ReadText() != "" || in.ReadBytes(5) != nil {
		t.Fatal("reads after error should return zero values")
	}
}

func TestDataInputNegativeLength(t *testing.T) {
	in := NewDataInput([]byte{0xff, 0xff})
	if b := in.ReadBytes(-3); b != nil || in.Err() == nil {
		t.Fatal("negative length must fail")
	}
}

func TestWritableRoundTrips(t *testing.T) {
	values := []Writable{
		&IntWritable{Value: -42},
		&LongWritable{Value: 1 << 60},
		&VLongWritable{Value: 300},
		&BooleanWritable{Value: true},
		&DoubleWritable{Value: -2.5},
		&Text{Value: "mapred.TaskUmbilicalProtocol"},
		&BytesWritable{Value: []byte{1, 2, 3, 4, 5}},
		&NullWritable{},
		&StringsWritable{Values: []string{"a", "bb", "ccc"}},
	}
	for _, v := range values {
		d := NewDataOutputBuffer()
		v.Write(NewDataOutput(d))
		if got := SerializedSize(v); got != d.Len() {
			t.Errorf("%T: SerializedSize=%d but wrote %d", v, got, d.Len())
		}
		name := typeName(t, v)
		clone, err := New(name)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		in := NewDataInput(d.Data())
		clone.ReadFields(in)
		if in.Err() != nil {
			t.Fatalf("%T: readFields err %v", v, in.Err())
		}
		d2 := NewDataOutputBuffer()
		clone.Write(NewDataOutput(d2))
		if !bytes.Equal(d.Data(), d2.Data()) {
			t.Errorf("%T: re-encode mismatch", v)
		}
	}
}

func typeName(t *testing.T, w Writable) string {
	t.Helper()
	switch w.(type) {
	case *IntWritable:
		return "IntWritable"
	case *LongWritable:
		return "LongWritable"
	case *VLongWritable:
		return "VLongWritable"
	case *BooleanWritable:
		return "BooleanWritable"
	case *DoubleWritable:
		return "DoubleWritable"
	case *Text:
		return "Text"
	case *BytesWritable:
		return "BytesWritable"
	case *NullWritable:
		return "NullWritable"
	case *StringsWritable:
		return "StringsWritable"
	}
	t.Fatalf("unknown type %T", w)
	return ""
}

func TestBytesWritablePropertyRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		w := &BytesWritable{Value: payload}
		d := NewDataOutputBuffer()
		w.Write(NewDataOutput(d))
		var got BytesWritable
		in := NewDataInput(d.Data())
		got.ReadFields(in)
		return in.Err() == nil && bytes.Equal(got.Value, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTextPropertyRoundTrip(t *testing.T) {
	f := func(s string) bool {
		w := &Text{Value: s}
		d := NewDataOutputBuffer()
		w.Write(NewDataOutput(d))
		var got Text
		in := NewDataInput(d.Data())
		got.ReadFields(in)
		return in.Err() == nil && got.Value == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStringsWritableHostileCount(t *testing.T) {
	// A corrupted count larger than the remaining payload must not
	// over-allocate or panic.
	d := NewDataOutputBuffer()
	out := NewDataOutput(d)
	out.WriteVInt(1 << 30)
	var w StringsWritable
	in := NewDataInput(d.Data())
	w.ReadFields(in)
	if len(w.Values) != 0 {
		t.Fatalf("parsed %d values from hostile count", len(w.Values))
	}
}

func TestRegistryUnknownType(t *testing.T) {
	if _, err := New("NoSuchWritable"); err == nil {
		t.Fatal("expected error for unknown type")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	Register("IntWritable", func() Writable { return &IntWritable{} })
}

func TestRegisteredTypesSorted(t *testing.T) {
	names := RegisteredTypes()
	if len(names) < 9 {
		t.Fatalf("only %d registered types", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func BenchmarkAlgorithm1SmallWrites(b *testing.B) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDataOutputBuffer()
		for j := 0; j < 64; j++ {
			d.Write(payload)
		}
	}
}

func BenchmarkVLongEncode(b *testing.B) {
	var buf [10]byte
	for i := 0; i < b.N; i++ {
		putVLong(buf[:], int64(i)*7919)
	}
}

func TestExtendedWritableRoundTrips(t *testing.T) {
	arr := &ArrayWritable{Type: "IntWritable", Values: []Writable{
		&IntWritable{Value: 1}, &IntWritable{Value: -2}, &IntWritable{Value: 3},
	}}
	m := &MapWritable{}
	m.Set("name", "Text", &Text{Value: "block-42"})
	m.Set("size", "LongWritable", &LongWritable{Value: 1 << 30})
	var md5 MD5Hash
	for i := range md5.Digest {
		md5.Digest[i] = byte(i * 17)
	}
	for _, tc := range []struct {
		name string
		w    Writable
	}{
		{"FloatWritable", &FloatWritable{Value: 3.5}},
		{"MD5Hash", &md5},
		{"ArrayWritable", arr},
		{"MapWritable", m},
	} {
		d := NewDataOutputBuffer()
		tc.w.Write(NewDataOutput(d))
		clone, err := New(tc.name)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		in := NewDataInput(d.Data())
		clone.ReadFields(in)
		if in.Err() != nil {
			t.Fatalf("%s: %v", tc.name, in.Err())
		}
		d2 := NewDataOutputBuffer()
		clone.Write(NewDataOutput(d2))
		if !bytes.Equal(d.Data(), d2.Data()) {
			t.Fatalf("%s: re-encode mismatch", tc.name)
		}
	}
}

func TestArrayWritableUnknownElementType(t *testing.T) {
	d := NewDataOutputBuffer()
	out := NewDataOutput(d)
	out.WriteUTF("NoSuchType")
	out.WriteInt32(3)
	var w ArrayWritable
	w.ReadFields(NewDataInput(d.Data()))
	if len(w.Values) != 0 {
		t.Fatalf("decoded %d values of unknown type", len(w.Values))
	}
}

func TestMapWritableLookup(t *testing.T) {
	m := &MapWritable{}
	m.Set("a", "IntWritable", &IntWritable{Value: 7})
	d := NewDataOutputBuffer()
	m.Write(NewDataOutput(d))
	var got MapWritable
	got.ReadFields(NewDataInput(d.Data()))
	if len(got.Keys) != 1 || got.Keys[0] != "a" {
		t.Fatalf("keys %v", got.Keys)
	}
	if v, ok := got.Values[0].(*IntWritable); !ok || v.Value != 7 {
		t.Fatalf("value %#v", got.Values[0])
	}
}

// writeSizes records the size of every sink write, the thing Algorithm 1's
// doubling and the pooled stream's re-gets depend on.
type writeSizes struct {
	bytes []byte
	sizes []int
}

func (s *writeSizes) Write(p []byte) {
	s.bytes = append(s.bytes, p...)
	s.sizes = append(s.sizes, len(p))
}

// TestEncodedUTFMatchesWriteUTF: a name encoded once and written with
// WriteEncodedUTF must be indistinguishable from WriteUTF to everything
// downstream: the same bytes, in the same sink writes, counted as the same
// operations (modelled serialization cost is charged per operation).
func TestEncodedUTFMatchesWriteUTF(t *testing.T) {
	for _, s := range []string{"", "x", "org.apache.hadoop.hdfs.protocol.ClientProtocol", strings.Repeat("é", 300)} {
		var direct, encoded writeSizes
		a, b := NewDataOutput(&direct), NewDataOutput(&encoded)
		a.WriteInt32(7)
		a.WriteUTF(s)
		b.WriteInt32(7)
		b.WriteEncodedUTF(EncodeUTF(s))
		if !bytes.Equal(direct.bytes, encoded.bytes) {
			t.Errorf("%q: encoded form writes %x, WriteUTF %x", s, encoded.bytes, direct.bytes)
		}
		if !reflect.DeepEqual(direct.sizes, encoded.sizes) {
			t.Errorf("%q: sink writes of %v bytes, WriteUTF's are %v", s, encoded.sizes, direct.sizes)
		}
		if a.Ops() != b.Ops() {
			t.Errorf("%q: %d operations counted, WriteUTF counts %d", s, b.Ops(), a.Ops())
		}
		in := NewDataInput(encoded.bytes)
		in.ReadInt32()
		if got := in.ReadUTF(); got != s {
			t.Errorf("read back %q, wrote %q", got, s)
		}
	}
}

// TestResetMatchesNew: a reused encoder or decoder starts each message as a
// new one would, error and operation count included, and ReadUTFBytes counts
// what ReadUTF counts.
func TestResetMatchesNew(t *testing.T) {
	var first, second writeSizes
	out := NewDataOutput(&first)
	out.WriteUTF("first message")
	out.Reset(&second)
	if out.Ops() != 0 {
		t.Errorf("Ops = %d after Reset", out.Ops())
	}
	out.WriteUTF("second")
	if string(first.bytes[2:]) != "first message" || string(second.bytes[2:]) != "second" {
		t.Errorf("sinks hold %q and %q", first.bytes, second.bytes)
	}

	in := NewDataInput([]byte{0})
	in.ReadInt64() // truncated: the error sticks
	if in.Err() == nil {
		t.Fatal("no error reading 8 bytes of 1")
	}
	in.Reset(second.bytes)
	fresh := NewDataInput(second.bytes)
	if got, want := string(in.ReadUTFBytes()), fresh.ReadUTF(); got != want || in.Err() != nil {
		t.Errorf("after Reset read %q (err %v), a new DataInput reads %q", got, in.Err(), want)
	}
	if in.Ops() != fresh.Ops() || in.Remaining() != 0 {
		t.Errorf("after Reset: %d ops, %d bytes left; a new DataInput: %d ops", in.Ops(), in.Remaining(), fresh.Ops())
	}
}
