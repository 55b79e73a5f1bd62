package tracing

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"strconv"
	"testing"
	"time"
)

// fuzzAttrs cuts script into alternating keys and values: each is a length
// byte (mod 8, so short keys repeat) and that many bytes. A value whose
// length byte has its top bit set is an integer — its bytes little-endian,
// negated when bit 6 is set too — which as carries as Int and kv as the
// decimal strconv writes. as holds the same annotations for Child.
func fuzzAttrs(script []byte) (kv []string, as []Attr) {
	for len(script) > 0 && len(kv) < 32 {
		flags, n := script[0], int(script[0])%8
		script = script[1:]
		if n > len(script) {
			n = len(script)
		}
		b := script[:n]
		script = script[n:]
		if len(kv)%2 == 0 || flags&0x80 == 0 {
			kv = append(kv, string(b))
			if len(kv)%2 == 0 {
				as = append(as, Attr{k: kv[len(kv)-2], v: kv[len(kv)-1]})
			}
			continue
		}
		var u [8]byte
		copy(u[:], b)
		v := int64(binary.LittleEndian.Uint64(u[:]))
		if flags&0x40 != 0 {
			v = -v
		}
		kv = append(kv, strconv.FormatInt(v, 10))
		as = append(as, Int(kv[len(kv)-2], v))
	}
	return kv, as
}

// marshalled is the reference record: json.Marshal of the span with its
// attributes in the map a span used to carry, plus the newline.
func marshalled(t *testing.T, sp Span, kv []string) []byte {
	t.Helper()
	for i := 0; i+1 < len(kv); i += 2 {
		if sp.Attrs == nil {
			sp.Attrs = map[string]string{}
		}
		sp.Attrs[kv[i]] = kv[i+1]
	}
	want, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}

// FuzzSpanRecord holds the hand encoder to encoding/json: for any name,
// kind, IDs, times and attributes — quotes, backslashes, control bytes,
// <>&, U+2028, invalid UTF-8, repeated keys, integers — the record a span set
// with SetAttr encodes to is byte for byte json.Marshal of the same span with
// map attributes, and so is a Child's whose integer annotations are Int.
func FuzzSpanRecord(f *testing.F) {
	f.Add("client.call", "client", uint64(1), uint64(2), uint64(0), int64(5), int64(7),
		[]byte("\x08protocol\x04echo\x06method\x04ping"))
	f.Add("a\"b\\c", "", uint64(1<<63), uint64(3), uint64(9), int64(-5), int64(0),
		[]byte("\x01k\x03<&>\x01k\x02\x00\x1f\x02\n\t\x03\xe2\x80\xa8"))
	f.Add("\xff\xfe x", "ev\x7f", uint64(0), uint64(1), uint64(1), int64(1), int64(-1),
		[]byte("\x03\xc3\x28a\x02\b\f\x01\r\x00"))
	f.Add("server.recv", "server", uint64(7), uint64(8), uint64(7), int64(0), int64(3),
		[]byte("\x05bytes\x82\x00\x02\x07wire_ns\xc3\x10\x27\x00\x01k\x80"))
	f.Fuzz(func(t *testing.T, name, kind string, trace, id, parent uint64, start, dur int64, script []byte) {
		kv, as := fuzzAttrs(script)
		sp := Span{Trace: trace, ID: id, Parent: parent, Name: name, Kind: kind, StartNS: start, DurNS: dur}
		want := marshalled(t, sp, kv)
		for i := 0; i+1 < len(kv); i += 2 {
			sp.SetAttr(kv[i], kv[i+1])
		}
		if got := appendRecord(nil, &sp); !bytes.Equal(got, want) {
			t.Fatalf("SetAttr span encodes to\n%q\nencoding/json writes\n%q", got, want)
		}
		// Child encodes its attributes, integers among them, the same way.
		sink := NewSink(nil, SinkOptions{})
		tr := New(1, sink, Sampler{})
		parentSpan := &Span{Trace: trace, ID: id}
		tr.Child(parentSpan, name, kind, time.Duration(start), time.Duration(dur), as...)
		child := Span{Trace: trace, ID: New(1, nil, Sampler{}).nextID(), Parent: id,
			Name: name, Kind: kind, StartNS: start, DurNS: dur}
		if got, want := sink.Bytes(), marshalled(t, child, kv); !bytes.Equal(got, want) {
			t.Fatalf("Child emits\n%q\nencoding/json writes\n%q", got, want)
		}
	})
}

// A sampled call's spans allocate only the spans Start returns: the sink
// encodes into its own buffer and a Child lives on the caller's stack.
func TestStreamingSpansAllocateOnlyLiveSpans(t *testing.T) {
	tr := New(1, NewSink(io.Discard, SinkOptions{}), Sampler{})
	call := func() {
		sp := tr.Start("client.call", "client", SpanContext{}, 0)
		sp.SetAttr("protocol", "p")
		sp.SetAttr("method", "m")
		tr.Child(sp, "client.send", "client", 0, 1, Int("bytes", 512))
		sp.EndAt(2)
	}
	call() // grow the sink's buffer and the live set
	if allocs := testing.AllocsPerRun(1000, call); allocs != 1 {
		t.Errorf("a traced span with a child allocates %.1f times, want 1 (the span)", allocs)
	}
}
