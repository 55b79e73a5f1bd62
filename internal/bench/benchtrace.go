package bench

import (
	"bufio"
	"os"
	"time"

	"rpcoib/internal/tracing"
)

// Like metrics, distributed tracing is wired through one package-level
// tracer: runners construct clusters internally, so the -trace CLI flag
// arms a shared tracer that every subsequently built client/server/substrate
// streams spans into. Nil (the default) means no tracing anywhere.
var (
	benchTrace     *tracing.Tracer
	benchTraceSink *tracing.Sink
	benchTraceBuf  *bufio.Writer
	benchTraceFile *os.File
)

// benchTraceSeed fixes the span-ID stream for benchmark traces: a constant,
// so two identical bench invocations produce byte-identical trace files.
const benchTraceSeed = 1

// EnableTracing arms distributed tracing for all subsequently constructed
// benchmark engines, streaming JSONL spans to path. The sampler selects
// always / 1-in-N / tail-latency sampling. Call CloseTrace at exit to flush.
func EnableTracing(path string, s tracing.Sampler) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	benchTraceFile = f
	benchTraceBuf = bufio.NewWriterSize(f, 1<<16)
	benchTraceSink = tracing.NewSink(benchTraceBuf, tracing.SinkOptions{})
	benchTrace = tracing.New(benchTraceSeed, benchTraceSink, s)
	benchTrace.Instrument(benchReg)
	return nil
}

// EnableTracingFromFlags arms tracing from the standard CLI flag triple:
// -trace (path; empty = off), -trace-sample (keep 1 in N), -trace-tail-ms
// (keep traces with roots >= the threshold). Tail wins if both are set.
func EnableTracingFromFlags(path string, sampleN, tailMS int) error {
	if path == "" {
		return nil
	}
	s := tracing.Sampler{}
	switch {
	case tailMS > 0:
		s = tracing.Sampler{Mode: tracing.SampleTail, TailOver: time.Duration(tailMS) * time.Millisecond}
	case sampleN > 1:
		s = tracing.Sampler{Mode: tracing.SampleEveryN, N: sampleN}
	}
	return EnableTracing(path, s)
}

// CloseTrace flushes and closes the trace file (no-op when tracing is off).
func CloseTrace() error {
	if benchTrace == nil {
		return nil
	}
	benchTrace.Flush()
	benchTraceSink.Close()
	if err := benchTraceBuf.Flush(); err != nil {
		benchTraceFile.Close()
		return err
	}
	return benchTraceFile.Close()
}
