package core

import (
	"bytes"
	"testing"
	"time"

	"rpcoib/internal/tracing"
	"rpcoib/internal/wire"
)

// byteSink collects what a DataOutput writes.
type byteSink []byte

func (s *byteSink) Write(p []byte) { *s = append(*s, p...) }

// requestHeader is the header a client writes for a call of kind.
func requestHeader(id int32, deadline time.Duration, tw traceWire, kind *clientKind) []byte {
	var s byteSink
	encodeRequestHeader(wire.NewDataOutput(&s), id, deadline, tw, kind)
	return s
}

// withinInput reports whether view is empty or lies inside data: a decoded
// name must be a window onto the frame, never memory past its end.
func withinInput(data, view []byte) bool {
	if len(view) == 0 {
		return true
	}
	for i := 0; i+len(view) <= len(data); i++ {
		if &data[i] == &view[0] {
			return true
		}
	}
	return false
}

// FuzzDecodeRequestHeader holds the request header's two directions together.
// Decoding arbitrary bytes never panics and hands out protocol and method
// views that lie inside the input. Every header encodeRequestHeader writes,
// untraced or traced (the negative deadline field plus the trace triple),
// decodes to the id, deadline and trace triple it was written with, and to
// the same names when their 16-bit UTF lengths can carry them. A negative
// deadline is written, and so read, as none.
func FuzzDecodeRequestHeader(f *testing.F) {
	const protocol, method = "org.apache.hadoop.hdfs.protocol.ClientProtocol", "getFileInfo"
	kind := (&clientMetrics{}).newKind(CallKind{protocol, method})
	tr := tracing.New(1, nil, tracing.Sampler{})
	root := tr.Start("client.call", "client", tracing.SpanContext{}, 0)
	attempt := tr.Start("client.attempt", "client", root.Context(), 0)
	tw := traceWireOf(attempt)
	untraced := requestHeader(7, 0, traceWire{}, kind)
	traced := requestHeader(8, 1500*time.Millisecond, tw, kind)
	f.Add(untraced, int32(7), int64(0), uint64(0), uint64(0), uint64(0), protocol, method)
	f.Add(traced, int32(8), int64(1500*time.Millisecond), tw.trace, tw.span, tw.parent, protocol, method)
	f.Add(traced[:len(traced)-3], int32(-1), int64(1<<62), uint64(1<<63-1), uint64(1), uint64(0), "", "m")
	f.Fuzz(func(t *testing.T, data []byte, id int32, deadline int64, trace, span, parent uint64, protocol, method string) {
		in := wire.NewDataInput(data)
		_, _, _, p, m := decodeRequestHeader(in)
		if in.Pos() > len(data) {
			t.Fatalf("decoder ran past the input: pos %d of %d", in.Pos(), len(data))
		}
		if !withinInput(data, p) || !withinInput(data, m) {
			t.Fatalf("protocol %q or method %q is not a view into the input", p, m)
		}

		tw := traceWire{trace, span, parent}
		hdr := requestHeader(id, time.Duration(deadline), tw, (&clientMetrics{}).newKind(CallKind{protocol, method}))
		in.Reset(hdr)
		gotID, gotDeadline, gotTW, gotP, gotM := decodeRequestHeader(in)
		wantTW := tw
		if trace == 0 {
			wantTW = traceWire{} // trace 0 is an untraced call: no triple on the wire
		}
		wantDeadline := time.Duration(max(deadline, 0)) // a negative deadline is none
		if gotID != id || gotDeadline != wantDeadline || gotTW != wantTW {
			t.Fatalf("wrote id %d deadline %d trace %+v, read id %d deadline %d trace %+v",
				id, wantDeadline, wantTW, gotID, gotDeadline, gotTW)
		}
		if len(protocol) > 0xffff || len(method) > 0xffff {
			return // a name the 16-bit UTF length cannot carry
		}
		if err := in.Err(); err != nil {
			t.Fatalf("header %x does not decode: %v", hdr, err)
		}
		if in.Remaining() != 0 {
			t.Fatalf("header %x leaves %d bytes unread", hdr, in.Remaining())
		}
		if !bytes.Equal(gotP, []byte(protocol)) || !bytes.Equal(gotM, []byte(method)) {
			t.Fatalf("wrote %q.%q, read %q.%q", protocol, method, gotP, gotM)
		}
	})
}
