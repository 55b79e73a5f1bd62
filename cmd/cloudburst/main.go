// Command cloudburst reproduces Figure 6(b): the CloudBurst short-read
// mapping application (Alignment 240 maps / 48 reduces, Filtering 24/24) on
// 9 nodes, under default Hadoop RPC over IPoIB and under RPCoIB.
package main

import (
	"flag"
	"os"

	"rpcoib/internal/bench"
)

func main() {
	harness := bench.RegisterFlags(flag.CommandLine, false)
	flag.Parse()
	harness.Start()
	harness.Fig6bCloudBurst(os.Stdout)
	harness.Finish()
}
