// Command sortbench reproduces Figure 6(a): the RandomWriter and Sort
// benchmarks on a master + N-slave cluster across data sizes, under default
// Hadoop RPC over IPoIB and under RPCoIB.
package main

import (
	"flag"
	"os"
	"strconv"
	"strings"

	"rpcoib/internal/bench"
)

func main() {
	slaves := flag.Int("slaves", 64, "worker node count (paper: 64)")
	sizes := flag.String("sizes-gb", "32,64,128", "comma-separated data sizes in GB")
	harness := bench.RegisterFlags(flag.CommandLine, false)
	flag.Parse()
	harness.Start()

	var sizesGB []int
	for _, s := range strings.Split(*sizes, ",") {
		gb, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			panic(err)
		}
		sizesGB = append(sizesGB, gb)
	}
	bench.Fig6aSort(os.Stdout, *slaves, sizesGB)
	harness.Finish()
}
