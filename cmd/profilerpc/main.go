// Command profilerpc reproduces the paper's profiling artifacts: Table I
// (per-<protocol,method> memory adjustments and serialization/send times in
// a Sort job), Figure 1 (buffer-allocation share of call receive time), and
// Figure 3 (message size locality). The metrics experiment runs the Table I
// Sort with the engine-wide metrics registry enabled and dumps it as text.
package main

import (
	"flag"
	"fmt"
	"os"

	"rpcoib/internal/bench"
	"rpcoib/internal/core"
	"rpcoib/internal/metrics"
)

func main() {
	experiment := flag.String("experiment", "all", "table1 | fig1 | fig3 | metrics | all")
	dataGB := flag.Int("data-gb", 4, "Sort input size in GB for table1/fig3 (paper: 4)")
	iters := flag.Int("iters", 20, "calls per Figure 1 payload point")
	harness := bench.RegisterFlags(flag.CommandLine, true)
	flag.Parse()
	harness.Start()

	switch *experiment {
	case "table1":
		harness.Table1Profile(os.Stdout, *dataGB)
	case "fig1":
		harness.Fig1AllocRatio(os.Stdout, nil, *iters)
	case "fig3":
		res := harness.Table1Profile(nil, *dataGB)
		bench.Fig3SizeLocality(os.Stdout, res)
	case "metrics":
		reg := harness.Metrics()
		res := harness.Table1Profile(os.Stdout, *dataGB)
		fmt.Println()
		fmt.Println("Buffer-allocation share of receive time, per call kind:")
		for _, a := range core.AllocShares(res.Profile) {
			fmt.Printf("  %-52s %6.1f%%\n", a.Kind.String(), 100*a.Ratio())
		}
		fmt.Println()
		fmt.Println("Metrics registry after the Sort run:")
		if err := metrics.WriteText(os.Stdout, reg.Snapshot(res.SortTime)); err != nil {
			fmt.Fprintf(os.Stderr, "write metrics: %v\n", err)
			os.Exit(1)
		}
	case "all":
		res := harness.Table1Profile(os.Stdout, *dataGB)
		fmt.Println()
		bench.Fig3SizeLocality(os.Stdout, res)
		fmt.Println()
		harness.Fig1AllocRatio(os.Stdout, nil, *iters)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	harness.Finish()
}
