package bench

import (
	"strings"
	"testing"
	"time"

	"rpcoib/internal/ycsb"
)

// These are scaled-down smoke tests of every experiment runner; the full
// paper-scale runs live in the repository-level benchmarks and cmd/ tools.

func TestFig5aRunner(t *testing.T) {
	rows := new(Harness).Fig5aLatency(nil, []int{1, 1024}, 20)
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if !(r.RPCoIB < r.IPoIB && r.RPCoIB < r.TenGigE) {
			t.Fatalf("RPCoIB not fastest: %+v", r)
		}
		red := 1 - float64(r.RPCoIB)/float64(r.IPoIB)
		if red < 0.40 || red > 0.60 {
			t.Errorf("payload %d: reduction vs IPoIB %.0f%% out of band", r.Payload, red*100)
		}
	}
}

func TestFig5bRunner(t *testing.T) {
	rows := new(Harness).Fig5bThroughput(nil, []int{8, 32}, 60)
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	last := rows[len(rows)-1]
	if last.RPCoIB <= last.IPoIB {
		t.Fatalf("RPCoIB throughput %.1f not above IPoIB %.1f", last.RPCoIB, last.IPoIB)
	}
	if last.IPoIB <= last.TenGigE*0.8 {
		t.Fatalf("IPoIB %.1f unexpectedly far below 10GigE %.1f", last.IPoIB, last.TenGigE)
	}
}

func TestFig1Runner(t *testing.T) {
	rows := new(Harness).Fig1AllocRatio(nil, []int{16 << 10, 2 << 20}, 8)
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	if rows[1].IPoIB <= rows[0].IPoIB {
		t.Fatalf("alloc share should grow with payload: %+v", rows)
	}
	if rows[1].IPoIB <= rows[1].OneGigE {
		t.Fatalf("alloc share on IPoIB should exceed 1GigE at 2MB: %+v", rows[1])
	}
}

func TestTable1AndFig3Runner(t *testing.T) {
	var sb strings.Builder
	res := new(Harness).Table1Profile(&sb, 1) // 1 GB sort on 9 nodes
	if res.SortTime <= 0 {
		t.Fatal("sort did not run")
	}
	out := sb.String()
	for _, want := range []string{"statusUpdate", "getTask", "addBlock", "blockReceived", "heartbeat"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I output missing %s", want)
		}
	}
	series := Fig3SizeLocality(&sb, res)
	if len(series) != 3 {
		t.Fatalf("series=%d", len(series))
	}
	for _, s := range series {
		if s.Calls == 0 || len(s.Classes) == 0 {
			t.Errorf("series %s empty", s.Name)
			continue
		}
		if s.Locality < 0.5 {
			t.Errorf("series %s locality %.2f implausibly low", s.Name, s.Locality)
		}
	}
}

func TestFig6aRunnerSmall(t *testing.T) {
	points := new(Harness).Fig6aSort(nil, 4, []int{1})
	if len(points) != 2 {
		t.Fatalf("points=%d", len(points))
	}
	base, rdma := points[0], points[1]
	if base.Mode != "baseline" || rdma.Mode != "RPCoIB" {
		t.Fatalf("modes: %+v", points)
	}
	// At this toy scale (1 GB, 4 slaves) job time is quantized by 3 s
	// heartbeats and 1 s status polls, so the RPC gain can be swamped by
	// one scheduling round in either direction; just bound the divergence.
	// The paper-scale runs in EXPERIMENTS.md carry the real comparison.
	if float64(rdma.Sort) > float64(base.Sort)*1.05 {
		t.Errorf("RPCoIB sort (%v) much slower than baseline (%v)", rdma.Sort, base.Sort)
	}
	if base.Sort < 30*time.Second || base.Sort > 30*time.Minute {
		t.Errorf("implausible sort time %v", base.Sort)
	}
}

func TestFig7RunnerSmall(t *testing.T) {
	points := new(Harness).Fig7HDFSWrite(nil, 8, []int{1})
	if len(points) != 7 {
		t.Fatalf("points=%d", len(points))
	}
	byLabel := map[string]time.Duration{}
	for _, p := range points {
		byLabel[p.Config] = p.Time
	}
	// Orderings the paper shows: IB data path beats IPoIB beats 1GigE, and
	// within a data path, RPCoIB control beats socket control.
	if !(byLabel["HDFSoIB-RPCoIB"] < byLabel["HDFS(IPoIB)-RPC(IPoIB)"]) {
		t.Errorf("HDFSoIB-RPCoIB %v not fastest vs IPoIB %v",
			byLabel["HDFSoIB-RPCoIB"], byLabel["HDFS(IPoIB)-RPC(IPoIB)"])
	}
	if !(byLabel["HDFS(IPoIB)-RPC(IPoIB)"] < byLabel["HDFS(1GigE)-RPC(1GigE)"]) {
		t.Errorf("IPoIB data path not faster than 1GigE")
	}
	if byLabel["HDFSoIB-RPCoIB"] > byLabel["HDFSoIB-RPC(IPoIB)"] {
		t.Errorf("RPCoIB control plane should not slow HDFSoIB: %v vs %v",
			byLabel["HDFSoIB-RPCoIB"], byLabel["HDFSoIB-RPC(IPoIB)"])
	}
}

func TestFig8RunnerSmall(t *testing.T) {
	points := new(Harness).Fig8HBase(nil, ycsb.WorkloadMix, "50%Get-50%Put", []int{20_000}, 8_000)
	if len(points) != 5 {
		t.Fatalf("points=%d", len(points))
	}
	byLabel := map[string]float64{}
	for _, p := range points {
		if p.Kops <= 0 {
			t.Fatalf("non-positive throughput: %+v", p)
		}
		byLabel[p.Config] = p.Kops
	}
	if byLabel["HBaseoIB-RPCoIB"] < byLabel["HBase(1GigE)-RPC(1GigE)"] {
		t.Errorf("best config slower than worst: %+v", byLabel)
	}
}

func TestAblationReadersScales(t *testing.T) {
	rows := new(Harness).AblationReaders(nil, []int{1, 4}, 16, 80)
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	// Widening the 0.20-era single Listener must raise baseline throughput —
	// quantifying how much of RPCoIB's win is its per-connection Readers.
	if rows[1].Throughput <= rows[0].Throughput*1.2 {
		t.Fatalf("readers=4 (%.0f) not meaningfully above readers=1 (%.0f)",
			rows[1].Throughput, rows[0].Throughput)
	}
}
