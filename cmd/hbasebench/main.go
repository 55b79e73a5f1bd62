// Command hbasebench reproduces Figure 8: YCSB throughput over mini-HBase
// (16 region servers, 16 clients, 1 KB records) for the 100% Get, 100% Put,
// and 50/50 mixes, across the paper's five HBase/RPC configurations.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rpcoib/internal/bench"
	"rpcoib/internal/ycsb"
)

func main() {
	mixFlag := flag.String("mix", "all", "get | put | mixed | all")
	records := flag.String("records", "100000,150000,200000,250000,300000",
		"comma-separated record counts")
	ops := flag.Int("ops", 640_000, "total operation count (paper: 640K)")
	harness := bench.RegisterFlags(flag.CommandLine, false)
	flag.Parse()
	harness.Start()

	var recordCounts []int
	for _, s := range strings.Split(*records, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			panic(err)
		}
		recordCounts = append(recordCounts, n)
	}
	type m struct {
		name string
		mix  ycsb.Mix
	}
	all := []m{
		{"100%Get", ycsb.WorkloadGet},
		{"100%Put", ycsb.WorkloadPut},
		{"50%Get-50%Put", ycsb.WorkloadMix},
	}
	selected := map[string]string{"get": "100%Get", "put": "100%Put", "mixed": "50%Get-50%Put"}
	ran := false
	for _, mm := range all {
		if *mixFlag != "all" && selected[*mixFlag] != mm.name {
			continue
		}
		bench.Fig8HBase(os.Stdout, mm.mix, mm.name, recordCounts, *ops)
		fmt.Println()
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown mix %q\n", *mixFlag)
		os.Exit(2)
	}
	harness.Finish()
}
