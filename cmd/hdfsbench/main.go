// Command hdfsbench reproduces Figure 7: HDFS Write latency for 1-5 GB
// files on 32 DataNodes with replication 3, across the seven combinations of
// HDFS data path (1GigE / IPoIB / HDFSoIB) and Hadoop RPC design (socket /
// RPCoIB).
package main

import (
	"flag"
	"os"
	"strconv"
	"strings"

	"rpcoib/internal/bench"
)

func main() {
	dataNodes := flag.Int("datanodes", 32, "DataNode count (paper: 32)")
	sizes := flag.String("sizes-gb", "1,2,3,4,5", "comma-separated file sizes in GB")
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
	harness.Fig7HDFSWrite(os.Stdout, *dataNodes, sizesGB)
	harness.Finish()
}
