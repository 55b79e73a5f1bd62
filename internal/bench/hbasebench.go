package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/hbase"
	"rpcoib/internal/hdfs"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/ycsb"
)

// HBaseConfigName labels one of Figure 8's five configurations: the HBase
// operation transport and the Hadoop (HDFS) RPC design underneath.
type HBaseConfigName struct {
	Label     string
	HBaseRDMA bool
	HBaseKind perfmodel.LinkKind
	RPCMode   core.Mode
	RPCKind   perfmodel.LinkKind
	DataKind  perfmodel.LinkKind
}

// Fig8Configs lists the paper's five HBase configurations.
func Fig8Configs() []HBaseConfigName {
	return []HBaseConfigName{
		{Label: "HBase(1GigE)-RPC(1GigE)", HBaseKind: perfmodel.OneGigE, RPCKind: perfmodel.OneGigE, DataKind: perfmodel.OneGigE},
		{Label: "HBaseoIB-RPC(1GigE)", HBaseRDMA: true, RPCKind: perfmodel.OneGigE, DataKind: perfmodel.OneGigE},
		{Label: "HBase(IPoIB)-RPC(IPoIB)", HBaseKind: perfmodel.IPoIB, RPCKind: perfmodel.IPoIB, DataKind: perfmodel.IPoIB},
		{Label: "HBaseoIB-RPC(IPoIB)", HBaseRDMA: true, RPCKind: perfmodel.IPoIB, DataKind: perfmodel.IPoIB},
		{Label: "HBaseoIB-RPCoIB", HBaseRDMA: true, RPCMode: core.ModeRPCoIB, RPCKind: perfmodel.IPoIB, DataKind: perfmodel.IPoIB},
	}
}

// HBasePoint is one Figure 8 measurement.
type HBasePoint struct {
	Config  string
	Records int
	Kops    float64
}

// Fig8HBase reproduces Figure 8: YCSB over 16 region servers and 16 clients,
// record counts 100K-300K x 1KB, with the given operation mix. opCount is
// the total operation count (the paper: 640K).
func (h *Harness) Fig8HBase(w io.Writer, mix ycsb.Mix, mixName string, recordCounts []int, opCount int) []HBasePoint {
	if len(recordCounts) == 0 {
		recordCounts = []int{100_000, 150_000, 200_000, 250_000, 300_000}
	}
	Fprintf(w, "Figure 8 (%s): HBase throughput (Kops/sec), 16 region servers, 16 clients\n", mixName)
	Fprintf(w, "%-26s", "config")
	for _, rc := range recordCounts {
		Fprintf(w, " %8dK", rc/1000)
	}
	Fprintf(w, "\n")
	var points []HBasePoint
	for _, cfg := range Fig8Configs() {
		Fprintf(w, "%-26s", cfg.Label)
		for _, rc := range recordCounts {
			kops := h.hbaseRunOnce(cfg, mix, rc, opCount)
			points = append(points, HBasePoint{Config: cfg.Label, Records: rc, Kops: kops})
			Fprintf(w, " %9.1f", kops)
		}
		Fprintf(w, "\n")
	}
	return points
}

func (h *Harness) hbaseRunOnce(cfg HBaseConfigName, mix ycsb.Mix, recordCount, opCount int) float64 {
	const servers, clients = 16, 16
	// Nodes: 0 = NameNode + HMaster, 1..16 = DataNode + RegionServer,
	// 17..32 = YCSB clients.
	cl := h.newCluster(cluster.ClusterA(servers + clients + 1))
	rsNodes := make([]int, 0, servers)
	for i := 1; i <= servers; i++ {
		rsNodes = append(rsNodes, i)
	}
	fs := hdfs.Deploy(cl, hdfs.Config{
		NameNode: 0, DataNodes: rsNodes, Replication: 3,
		RPCMode: cfg.RPCMode, RPCKind: cfg.RPCKind, DataKind: cfg.DataKind,
		Metrics: h.reg, Trace: h.tracer,
	})
	missRatio := 0.03
	if mix.UpdateProportion > 0 && mix.ReadProportion > 0 {
		// Interleaved writes churn the block cache (Section IV-E).
		missRatio = 0.15
	}
	hb := hbase.Deploy(cl, hbase.Config{
		Master: 0, RegionServers: rsNodes,
		HBaseRDMA: cfg.HBaseRDMA, HBaseKind: cfg.HBaseKind,
		CacheMissRatio: missRatio, Metrics: h.reg, Trace: h.tracer,
	}, fs)
	w := ycsb.Workload{RecordCount: recordCount, OpCount: opCount, RecordSize: 1024, Mix: mix, Zipfian: true}

	var totalOps int
	var finish, loadDone time.Duration
	startQ := cl.Sim.NewQueue(0)
	loaded := 0
	for i := 0; i < clients; i++ {
		i := i
		node := servers + 1 + i
		cl.SpawnOn(node, fmt.Sprintf("ycsb-%d", i), func(e exec.Env) {
			e.Sleep(100 * time.Millisecond)
			c := hb.NewClient(node)
			from := recordCount * i / clients
			to := recordCount * (i + 1) / clients
			if err := ycsb.Load(e, c, w, from, to); err != nil {
				panic(err)
			}
			loaded++
			if loaded == clients {
				loadDone = e.Now()
				startQ.Close() // release everyone
			} else {
				startQ.Get(cluster.ProcOf(e))
			}
			res, err := ycsb.Run(e, c, w, opCount/clients, rand.New(rand.NewSource(int64(1000+i))))
			if err != nil {
				panic(err)
			}
			totalOps += res.Ops
			if e.Now() > finish {
				finish = e.Now()
			}
			if totalOps >= opCount/clients*clients {
				fs.Stop()
			}
		})
	}
	end := cl.RunUntil(4 * time.Hour)
	if totalOps == 0 || finish <= loadDone {
		panic("hbase run incomplete")
	}
	h.record(fmt.Sprintf("fig8_hbase/config=%s/records=%d", cfg.Label, recordCount), end)
	return float64(totalOps) / (finish - loadDone).Seconds() / 1000
}
