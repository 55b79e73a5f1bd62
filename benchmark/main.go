// Command benchmark is the repository's benchmark: six workloads, the
// end-to-end metrics every later performance claim is judged by, and a traced
// run that measures every layer from outside. See README.md.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, result as the last line
//	benchmark [--runs N]                                      every workload, a table, out/result.json
//	benchmark -check a.json b.json                            compare two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	cfg := defaultConfig()
	var trace, runs int
	var check, printSpec bool
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload (default: all of them, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", defaultOutDir(), "directory for trace and result files")
	flag.IntVar(&runs, "runs", 1, "untraced runs per workload when running all of them (seeds 1..runs)")
	flag.BoolVar(&check, "check", false, "compare two result files: -check a.json b.json")
	flag.BoolVar(&printSpec, "print-spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	cfg.trace = trace != 0

	switch {
	case printSpec:
		os.Stdout.Write(specJSON())
	case check:
		if flag.NArg() != 2 {
			fatal("usage: benchmark -check a.json b.json")
		}
		ok, err := checkFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case cfg.workload == "":
		if err := runAll(cfg, runs); err != nil {
			fatal(err)
		}
	default:
		if !isWorkload(cfg.workload) {
			fatal(fmt.Sprintf("unknown workload %q", cfg.workload))
		}
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(err)
		}
		for _, spec := range specFor(cfg.trace) {
			fmt.Printf("%-40s %16.6g %s\n", spec.Name, res.Metrics[spec.Name].Value, spec.Unit)
		}
		for _, n := range res.notes {
			fmt.Println("note:", n)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

// defaultOutDir is benchmark/out whether the program is started from the
// repository root or from its own directory.
func defaultOutDir() string {
	if _, err := os.Stat("benchmark/go.mod"); err == nil {
		return "benchmark/out"
	}
	return "out"
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "benchmark:", v)
	os.Exit(2)
}
