package tracing

import (
	"bytes"
	"strings"
	"testing"
)

// TestShardSpansMergeOrder: spans emitted in arbitrary order come out of
// Merge sorted by (StartNS, Trace, ID) regardless of the order they were
// emitted in (which follows the shard layout) — the layout-invariance Merge
// provides.
func TestShardSpansMergeOrder(t *testing.T) {
	spans := []Span{
		{Trace: 9, ID: 2, Name: "c", StartNS: 300},
		{Trace: 3, ID: 1, Name: "a", StartNS: 100},
		{Trace: 3, ID: 2, Name: "b", StartNS: 100},
		{Trace: 1, ID: 1, Name: "d", StartNS: 300},
	}
	// Two emission orders, as two shard layouts would run them.
	var outs []string
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 1, 0, 2}} {
		ss := NewShardSpans(1)
		for _, i := range order {
			ss.Emit(spans[i])
		}
		var buf bytes.Buffer
		sink := NewSink(&buf, SinkOptions{})
		if n := ss.Merge(sink); n != len(spans) {
			t.Fatalf("merged %d spans, want %d", n, len(spans))
		}
		sink.Close()
		outs = append(outs, buf.String())
	}
	if outs[0] != outs[1] {
		t.Fatalf("merge output depends on emission order:\n%s\nvs\n%s", outs[0], outs[1])
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(outs[0]), "\n") {
		for _, want := range []string{"\"a\"", "\"b\"", "\"c\"", "\"d\""} {
			if strings.Contains(line, want) {
				names = append(names, want)
			}
		}
	}
	if got := strings.Join(names, " "); got != `"a" "b" "d" "c"` {
		t.Fatalf("merge order %s, want (StartNS, Trace, ID) order a b d c", got)
	}
}

// TestShardSpansSamplingLayoutInvariant: the kept set depends only on the
// trace ID hash, never on the emitting shard.
func TestShardSpansSamplingLayoutInvariant(t *testing.T) {
	ss := NewShardSpans(4)
	kept := 0
	for trace := uint64(1); trace <= 256; trace++ {
		a, b := ss.Sampled(trace), ss.Sampled(trace)
		if a != b {
			t.Fatalf("Sampled(%d) not stable", trace)
		}
		if a {
			kept++
		}
	}
	// ~1 in 4 of 256 hashes; the splitmix64 mix keeps this near 64.
	if kept < 32 || kept > 128 {
		t.Fatalf("kept %d of 256 traces at sampleN=4, want roughly a quarter", kept)
	}
	if !NewShardSpans(1).Sampled(7) {
		t.Fatal("sampleN<=1 must keep every trace")
	}
}

// TestShardSpansCapCountsDrops: overflow past the buffer cap is counted,
// never silent, and the spans under the cap still merge.
func TestShardSpansCapCountsDrops(t *testing.T) {
	ss := NewShardSpans(1)
	if ss.cap != maxShardSpans {
		t.Fatalf("cap %d, want %d", ss.cap, maxShardSpans)
	}
	ss.cap = 3 // the real cap is 1<<20 spans; a small one keeps the test cheap
	for i := 0; i < 5; i++ {
		ss.Emit(Span{Trace: uint64(i + 1), ID: 1, StartNS: int64(i)})
	}
	if got := ss.Dropped(); got != 2 {
		t.Fatalf("Dropped() = %d, want 2 (5 emits against cap 3)", got)
	}
	var buf bytes.Buffer
	sink := NewSink(&buf, SinkOptions{})
	if n := ss.Merge(sink); n != 3 {
		t.Fatalf("merged %d spans, want the 3 under the cap", n)
	}
	sink.Close()
	if strings.Count(buf.String(), "\n") != 3 {
		t.Fatalf("sink wrote %q, want 3 span lines", buf.String())
	}
}
