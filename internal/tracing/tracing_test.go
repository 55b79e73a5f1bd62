package tracing

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"rpcoib/internal/exec"
	"rpcoib/internal/metrics"
)

func TestNilTracerAndSpanAreSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", "client", SpanContext{}, 0)
	if sp != nil {
		t.Fatal("nil tracer must return nil spans")
	}
	sp.SetAttr("k", "v")
	sp.EndAt(time.Second)
	if sp.Context() != (SpanContext{}) || sp.TraceID() != 0 {
		t.Fatal("nil span accessors must return zero values")
	}
	tr.Child(nil, "c", "client", 0, 0)
	tr.Event("e", 0)
	tr.Flush()
	if tr.Sink() != nil {
		t.Fatal("nil tracer has no sink")
	}
}

func TestSameSeedTracersAreByteIdentical(t *testing.T) {
	run := func() []byte {
		sink := NewSink(nil, SinkOptions{})
		tr := New(42, sink, Sampler{})
		for i := 0; i < 10; i++ {
			at := time.Duration(i) * time.Millisecond
			root := tr.Start("client.call", "client", SpanContext{}, at)
			root.SetAttr("method", "ping")
			tr.Child(root, "client.send", "client", at, time.Microsecond, Int("bytes", 128))
			srv := tr.Start("server.call", "server", root.Context(), at+time.Microsecond)
			srv.EndAt(time.Duration(i+1) * time.Millisecond)
			root.EndAt(time.Duration(i+1) * time.Millisecond)
		}
		tr.Event("fault.link_down", 5*time.Millisecond, "link", "ib0")
		return sink.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed tracers must emit byte-identical streams")
	}
	if len(a) == 0 {
		t.Fatal("no spans emitted")
	}
	spans, err := ReadSpans(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if problems := CheckSpans(spans); len(problems) != 0 {
		t.Fatalf("invariant violations: %v", problems)
	}
}

func TestDifferentSeedsDifferentIDs(t *testing.T) {
	a := New(1, nil, Sampler{}).Start("x", "client", SpanContext{}, 0)
	b := New(2, nil, Sampler{}).Start("x", "client", SpanContext{}, 0)
	if a.ID == b.ID {
		t.Fatal("different seeds must draw different span IDs")
	}
	if a.ID == 0 || a.ID>>63 != 0 {
		t.Fatalf("span ID %d must be nonzero and fit int63", a.ID)
	}
}

func TestChildJoinsParentTraceBypassingSampling(t *testing.T) {
	sink := NewSink(nil, SinkOptions{})
	tr := New(7, sink, Sampler{Mode: SampleEveryN, N: 1000})
	root := tr.Start("root", "op", SpanContext{}, 0) // first root: kept
	if root == nil {
		t.Fatal("first root must be sampled in")
	}
	child := tr.Start("child", "server", root.Context(), time.Microsecond)
	if child == nil || child.Trace != root.Trace || child.Parent != root.ID {
		t.Fatalf("child must join the parent trace: %+v", child)
	}
	if skipped := tr.Start("root2", "op", SpanContext{}, 0); skipped != nil {
		t.Fatal("second root under 1-in-1000 sampling must be dropped")
	}
}

func TestEveryNSampling(t *testing.T) {
	reg := metrics.New()
	tr := New(7, NewSink(nil, SinkOptions{}), Sampler{Mode: SampleEveryN, N: 4})
	tr.Instrument(reg)
	kept := 0
	for i := 0; i < 40; i++ {
		if sp := tr.Start("r", "op", SpanContext{}, 0); sp != nil {
			kept++
			sp.EndAt(time.Microsecond)
		}
	}
	if kept != 10 {
		t.Fatalf("kept %d of 40 under 1-in-4 sampling", kept)
	}
	if got := reg.Counter(MTraceSampledOut).Value(); got != 30 {
		t.Fatalf("%s=%d, want 30", MTraceSampledOut, got)
	}
}

func TestTailSamplingKeepsOnlySlowTraces(t *testing.T) {
	sink := NewSink(nil, SinkOptions{})
	tr := New(7, sink, Sampler{Mode: SampleTail, TailOver: time.Millisecond})
	fast := tr.Start("fast", "op", SpanContext{}, 0)
	fast.EndAt(100 * time.Microsecond) // below threshold: discarded
	slow := tr.Start("slow", "op", SpanContext{}, 0)
	tr.Child(slow, "stage", "client", 0, time.Millisecond)
	slow.EndAt(2 * time.Millisecond) // kept, with its child
	out := string(sink.Bytes())
	if strings.Contains(out, `"fast"`) {
		t.Fatal("fast trace must be tail-discarded")
	}
	if !strings.Contains(out, `"slow"`) || !strings.Contains(out, `"stage"`) {
		t.Fatalf("slow trace and its children must be kept:\n%s", out)
	}
}

func TestSinkBoundedMemoryCountsDrops(t *testing.T) {
	reg := metrics.New()
	sink := NewSink(nil, SinkOptions{MaxBuffered: 8})
	tr := New(7, sink, Sampler{})
	tr.Instrument(reg)
	for i := 0; i < 20; i++ {
		tr.Event("e", time.Duration(i))
	}
	spans, err := ReadSpans(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 8 {
		t.Fatalf("retained %d records, want 8", len(spans))
	}
	if sink.Dropped() != 12 {
		t.Fatalf("Dropped=%d, want 12", sink.Dropped())
	}
	if got := reg.Counter(MTraceDropped).Value(); got != 12 {
		t.Fatalf("%s=%d, want 12", MTraceDropped, got)
	}
}

// TestSinkConcurrentEmit exercises the sink under parallel emitters so the
// -race run proves the bounded buffer needs no external synchronization.
func TestSinkConcurrentEmit(t *testing.T) {
	sink := NewSink(nil, SinkOptions{MaxBuffered: 64})
	tr := New(7, sink, Sampler{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Event("e", time.Duration(i))
			}
		}()
	}
	wg.Wait()
	if got := int(sink.Dropped()); got != 8*100-64 {
		t.Fatalf("Dropped=%d, want %d", got, 8*100-64)
	}
}

func TestFlushEmitsUnfinishedSpans(t *testing.T) {
	sink := NewSink(nil, SinkOptions{})
	tr := New(7, sink, Sampler{})
	root := tr.Start("client.call", "client", SpanContext{}, 0)
	tr.Child(root, "client.send", "client", 0, time.Microsecond)
	// Simulation torn down before the call completed: EndAt never runs.
	tr.Flush()
	spans, err := ReadSpans(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if problems := CheckSpans(spans); len(problems) != 0 {
		t.Fatalf("flushed file must have no orphans: %v", problems)
	}
	found := false
	for _, sp := range spans {
		if sp.Name == "client.call" {
			found = true
			if sp.Attrs["unfinished"] == "" {
				t.Fatal("flushed span must carry the unfinished marker")
			}
		}
	}
	if !found {
		t.Fatal("flush must emit the open root")
	}
	// Flushing again must be a no-op.
	before := len(sink.Bytes())
	tr.Flush()
	if len(sink.Bytes()) != before {
		t.Fatal("second flush re-emitted spans")
	}
}

func TestWithSpanThreadsContext(t *testing.T) {
	sc := SpanContext{Trace: 5, Span: 9}
	e := WithSpan(fakeEnv{}, sc)
	if got := ContextOf(e); got != sc {
		t.Fatalf("ContextOf=%v, want %v", got, sc)
	}
	if got := ContextOf(fakeEnv{}); got != (SpanContext{}) {
		t.Fatalf("plain env must have zero context, got %v", got)
	}
}

func TestStartOpNilTracerPassthrough(t *testing.T) {
	e, done := StartOp(nil, fakeEnv{}, "op.x")
	if _, ok := e.(fakeEnv); !ok {
		t.Fatal("nil tracer must return the env unchanged")
	}
	done() // must not panic
}

func TestStartOpEmitsRootWithAttrs(t *testing.T) {
	sink := NewSink(nil, SinkOptions{})
	tr := New(7, sink, Sampler{})
	e, done := StartOp(tr, fakeEnv{}, "op.hdfs.write", "path", "/f")
	if ContextOf(e) == (SpanContext{}) {
		t.Fatal("op env must carry the op span context")
	}
	done()
	out := string(sink.Bytes())
	if !strings.Contains(out, `"op.hdfs.write"`) || !strings.Contains(out, `"path":"/f"`) {
		t.Fatalf("op span missing from output:\n%s", out)
	}
}

// fakeEnv is a minimal exec.Env for context-threading tests.
type fakeEnv struct{}

func (fakeEnv) Now() time.Duration           { return 0 }
func (fakeEnv) Sleep(time.Duration)          {}
func (fakeEnv) Work(time.Duration)           {}
func (fakeEnv) Spawn(string, func(exec.Env)) {}
func (fakeEnv) NewQueue(int) exec.Queue      { return nil }
func (fakeEnv) Rand() *rand.Rand             { return nil }
