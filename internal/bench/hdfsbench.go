package bench

import (
	"fmt"
	"io"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/hdfs"
	"rpcoib/internal/perfmodel"
)

// HDFSConfigName labels one of Figure 7's seven configurations.
type HDFSConfigName struct {
	Label    string
	DataRDMA bool
	DataKind perfmodel.LinkKind
	RPCMode  core.Mode
	RPCKind  perfmodel.LinkKind
}

// Fig7Configs lists the paper's seven HDFS-Write configurations.
func Fig7Configs() []HDFSConfigName {
	return []HDFSConfigName{
		{Label: "HDFS(1GigE)-RPC(1GigE)", DataKind: perfmodel.OneGigE, RPCKind: perfmodel.OneGigE},
		{Label: "HDFS(1GigE)-RPCoIB", DataKind: perfmodel.OneGigE, RPCMode: core.ModeRPCoIB},
		{Label: "HDFS(IPoIB)-RPC(IPoIB)", DataKind: perfmodel.IPoIB, RPCKind: perfmodel.IPoIB},
		{Label: "HDFS(IPoIB)-RPCoIB", DataKind: perfmodel.IPoIB, RPCMode: core.ModeRPCoIB},
		{Label: "HDFSoIB-RPC(1GigE)", DataRDMA: true, RPCKind: perfmodel.OneGigE},
		{Label: "HDFSoIB-RPC(IPoIB)", DataRDMA: true, RPCKind: perfmodel.IPoIB},
		{Label: "HDFSoIB-RPCoIB", DataRDMA: true, RPCMode: core.ModeRPCoIB},
	}
}

// HDFSWritePoint is one Figure 7 measurement.
type HDFSWritePoint struct {
	Config string
	SizeGB int
	Time   time.Duration
}

// Fig7HDFSWrite reproduces Figure 7: a single client writes files of 1-5 GB
// into HDFS with 32 DataNodes and replication 3, across all seven
// data-path x control-path configurations.
func (h *Harness) Fig7HDFSWrite(w io.Writer, dataNodes int, sizesGB []int) []HDFSWritePoint {
	if dataNodes <= 0 {
		dataNodes = 32
	}
	if len(sizesGB) == 0 {
		sizesGB = []int{1, 2, 3, 4, 5}
	}
	Fprintf(w, "Figure 7: HDFS Write time (s), %d DataNodes, replication 3\n", dataNodes)
	Fprintf(w, "%-26s", "config")
	for _, gb := range sizesGB {
		Fprintf(w, " %7dGB", gb)
	}
	Fprintf(w, "\n")
	var points []HDFSWritePoint
	for _, cfg := range Fig7Configs() {
		Fprintf(w, "%-26s", cfg.Label)
		for _, gb := range sizesGB {
			took := h.hdfsWriteOnce(cfg, dataNodes, int64(gb)*GB)
			points = append(points, HDFSWritePoint{Config: cfg.Label, SizeGB: gb, Time: took})
			Fprintf(w, " %9.1f", took.Seconds())
		}
		Fprintf(w, "\n")
	}
	return points
}

func (h *Harness) hdfsWriteOnce(cfg HDFSConfigName, dataNodes int, size int64) time.Duration {
	// Nodes: 0 NameNode, 1..N DataNodes, N+1 client (paper: NN and client on
	// their own nodes).
	cc := cluster.ClusterA(dataNodes + 2)
	cl := h.newCluster(cc)
	nodes := make([]int, 0, dataNodes)
	for i := 1; i <= dataNodes; i++ {
		nodes = append(nodes, i)
	}
	fs := hdfs.Deploy(cl, hdfs.Config{
		NameNode: 0, DataNodes: nodes, Replication: 3,
		RPCMode: cfg.RPCMode, RPCKind: cfg.RPCKind,
		DataRDMA: cfg.DataRDMA, DataKind: cfg.DataKind,
		Metrics: h.reg, Trace: h.tracer,
	})
	var took time.Duration
	client := dataNodes + 1
	cl.SpawnOn(client, "writer", func(e exec.Env) {
		e.Sleep(50 * time.Millisecond)
		c := fs.NewClient(client)
		start := e.Now()
		if err := c.CreateFile(e, "/bench/file", size, 3); err != nil {
			panic(fmt.Sprintf("hdfs write: %v", err))
		}
		took = e.Now() - start
		fs.Stop()
	})
	end := cl.RunUntil(2 * time.Hour)
	h.record(fmt.Sprintf("fig7_hdfs_write/config=%s/gb=%d", cfg.Label, size/GB), end)
	return took
}
