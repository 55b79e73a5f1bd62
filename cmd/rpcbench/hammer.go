package main

import (
	"fmt"
	"os"
	"time"

	"rpcoib/internal/bench"
	"rpcoib/internal/metrics"
)

// hammerScale carries the -hammer-scaleout flag block: the S23 connection
// scale-out path (SRQ, QP multiplexing, LRU session cache, memory budget).
type hammerScale struct {
	on        bool
	muxCap    int
	connCache int
	srqDepth  int
	budget    int64
}

// runHammer executes the S22 scale scenario (-experiment=hammer): a
// NameNode hammer on the sharded kernel, with snapshot deltas streamed to
// -metrics-stream in constant memory.
func runHammer(shards, nodes, clients int, duration time.Duration, streamPath string, scale hammerScale) error {
	var sink *metrics.StreamSink
	if streamPath != "" {
		f, err := os.Create(streamPath)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = metrics.NewStreamSink(f, 0)
	}
	cfg := bench.HammerConfig{
		Nodes: nodes, Clients: clients, Shards: shards,
		Duration:    duration,
		MetricsSink: sink,
	}
	if scale.on {
		cfg.ScaleOut = true
		cfg.QPMuxCap = scale.muxCap
		cfg.ConnCacheCap = scale.connCache
		cfg.SRQDepth = scale.srqDepth
		cfg.MemBudget = scale.budget
	}
	start := time.Now()
	res := bench.RunHammer(cfg)
	bench.HammerReport(os.Stdout, cfg, res, time.Since(start))
	if sink != nil {
		if err := sink.Close(); err != nil {
			return err
		}
		fmt.Printf("hammer: streamed %d snapshot deltas to %s (dropped %d, flushes %d)\n",
			sink.Emitted(), streamPath, sink.Dropped(), sink.Flushes())
	}
	return nil
}
