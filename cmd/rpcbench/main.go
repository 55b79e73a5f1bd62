// Command rpcbench runs the RPC micro-benchmarks of the paper's Figure 5:
// ping-pong latency across payload sizes (5a) and aggregate throughput
// versus concurrent clients (5b), comparing default Hadoop RPC over 10GigE
// and IPoIB with RPCoIB over native InfiniBand. It can also sweep the
// eager/RDMA threshold and the buffer-pool policies (the ablations).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rpcoib/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: latency | throughput | threshold | pool | readers | hammer | all")
	iters := flag.Int("iters", 200, "calls per measurement")
	hammerNodes := flag.Int("hammer-nodes", 1000, "hammer: cluster size incl. the NameNode")
	hammerClients := flag.Int("hammer-clients", 100000, "hammer: total closed-loop clients")
	hammerDuration := flag.Duration("hammer-duration", 20*time.Millisecond, "hammer: virtual run length")
	hammerScaleOut := flag.Bool("hammer-scaleout", false, "hammer: enable the S23 scale-out path (SRQ, QP multiplexing, LRU session cache, registered-memory budget)")
	hammerMuxCap := flag.Int("hammer-mux-cap", 64, "hammer: physical QP cap for the scale-out multiplexer")
	hammerConnCache := flag.Int("hammer-conn-cache", 4096, "hammer: server session-cache (LRU) capacity under -hammer-scaleout")
	hammerSRQDepth := flag.Int("hammer-srq-depth", 0, "hammer: shared receive queue depth (0 = 8x handlers)")
	hammerBudget := flag.Int64("hammer-budget-bytes", 0, "hammer: registered recv-memory budget in bytes (0 = depth x buffer size)")
	harness := bench.RegisterFlags(flag.CommandLine, true)
	flag.Parse()
	harness.Start()

	run := func(name string) bool { return *experiment == "all" || *experiment == name }
	any := false
	if run("latency") {
		harness.Fig5aLatency(os.Stdout, nil, *iters)
		fmt.Println()
		any = true
	}
	if run("throughput") {
		harness.Fig5bThroughput(os.Stdout, nil, *iters)
		fmt.Println()
		any = true
	}
	if run("threshold") {
		harness.AblationRDMAThreshold(os.Stdout, 64<<10, nil, *iters)
		fmt.Println()
		any = true
	}
	if run("pool") {
		harness.AblationPoolPolicy(os.Stdout, 512, *iters)
		fmt.Println()
		any = true
	}
	if run("readers") {
		harness.AblationReaders(os.Stdout, nil, 32, *iters)
		fmt.Println()
		any = true
	}
	if *experiment == "hammer" {
		// The scale scenario runs only when asked for by name: at the default
		// 1000 nodes / 100K clients it is far heavier than the paper figures.
		cfg := bench.HammerConfig{Nodes: *hammerNodes, Clients: *hammerClients, Duration: *hammerDuration}
		if *hammerScaleOut {
			cfg.ScaleOut = true
			cfg.QPMuxCap, cfg.ConnCacheCap = *hammerMuxCap, *hammerConnCache
			cfg.SRQDepth, cfg.MemBudget = *hammerSRQDepth, *hammerBudget
		}
		start := time.Now()
		res := harness.RunHammer(cfg)
		bench.HammerReport(os.Stdout, cfg, res, time.Since(start))
		any = true
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	harness.Finish()
}
