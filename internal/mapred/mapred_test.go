package mapred

import (
	"fmt"
	"testing"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/hdfs"
	"rpcoib/internal/metrics"
	"rpcoib/internal/perfmodel"
)

// testDeployment wires a small combined HDFS+MapReduce cluster: node 0 runs
// the NameNode and JobTracker, nodes 1..slaves run DataNode+TaskTracker, and
// the last node hosts the submitting client.
type testDeployment struct {
	cl *cluster.Cluster
	fs *hdfs.HDFS
	mr *MapReduce
}

func newTestDeployment(t *testing.T, slaves int, mode core.Mode, reg *metrics.Registry) *testDeployment {
	t.Helper()
	cl := cluster.New(cluster.Config{Nodes: slaves + 2, CoresPerNode: 8, Seed: 1,
		DiskReadBW: 110e6, DiskWriteBW: 95e6, DiskSeek: 6 * time.Millisecond})
	nodes := make([]int, 0, slaves)
	for i := 1; i <= slaves; i++ {
		nodes = append(nodes, i)
	}
	fs := hdfs.Deploy(cl, hdfs.Config{
		NameNode: 0, DataNodes: nodes,
		BlockSize: 8 << 20, Replication: 2,
		RPCMode: mode, RPCKind: perfmodel.IPoIB, DataKind: perfmodel.IPoIB,
		Metrics: reg,
	})
	mr := Deploy(cl, Config{
		JobTracker: 0, TaskTrackers: nodes,
		MapSlots: 4, ReduceSlots: 2,
		RPCMode: mode, RPCKind: perfmodel.IPoIB, ShuffleKind: perfmodel.IPoIB,
		HeartbeatInterval: time.Second,
		Metrics:           reg,
	}, fs)
	return &testDeployment{cl: cl, fs: fs, mr: mr}
}

// writeInputs creates per-map input files from the client node.
func writeInputs(t *testing.T, e exec.Env, d *testDeployment, node, n int, size int64) ([]string, []int64) {
	t.Helper()
	dfs := d.fs.NewClient(node)
	files := make([]string, 0, n)
	sizes := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/in/part-%05d", i)
		if err := dfs.CreateFile(e, path, size, 2); err != nil {
			t.Errorf("input %s: %v", path, err)
			return nil, nil
		}
		files = append(files, path)
		sizes = append(sizes, size)
	}
	return files, sizes
}

func TestSmallSortJobCompletes(t *testing.T) {
	d := newTestDeployment(t, 4, core.ModeBaseline, nil)
	client := 5
	var result *JobResult
	d.cl.SpawnOn(client, "submitter", func(e exec.Env) {
		e.Sleep(100 * time.Millisecond)
		files, sizes := writeInputs(t, e, d, client, 6, 8<<20)
		if files == nil {
			return
		}
		var err error
		result, err = d.mr.RunJob(e, client, SubmitJobParam{
			Name: "sort", NumReduces: 4,
			InputFiles: files, InputSizes: sizes,
			OutputPath: "/out", OutputReplication: 1,
			MapCPUPerMBNs:    int64(2 * time.Millisecond),
			ReduceCPUPerMBNs: int64(2 * time.Millisecond),
			WritesHDFSOutput: true,
		})
		if err != nil {
			t.Error(err)
		}
	})
	d.cl.RunUntil(30 * time.Minute)
	if result == nil {
		t.Fatal("job did not finish")
	}
	if !result.Status.Complete || result.Status.MapsDone != 6 || result.Status.ReducesDone != 4 {
		t.Fatalf("status %+v", result.Status)
	}
	t.Logf("sort of 48MB on 4 slaves: %v", result.Duration)
	if result.Duration < 2*time.Second || result.Duration > 15*time.Minute {
		t.Fatalf("implausible duration %v", result.Duration)
	}
	// Outputs committed into place.
	for i := 0; i < 4; i++ {
		path := fmt.Sprintf("/out/part-r-%05d", i)
		if locs := d.fs.NameNode().LocationsOf(path); locs == nil {
			t.Errorf("missing output %s", path)
		}
	}
}

func TestMapOnlyJob(t *testing.T) {
	d := newTestDeployment(t, 3, core.ModeBaseline, nil)
	client := 4
	var result *JobResult
	d.cl.SpawnOn(client, "submitter", func(e exec.Env) {
		e.Sleep(100 * time.Millisecond)
		// RandomWriter-style: no input read, each map emits 16 MB to HDFS.
		files := make([]string, 6)
		sizes := make([]int64, 6)
		for i := range files {
			files[i] = fmt.Sprintf("synthetic-%d", i)
			sizes[i] = 16 << 20
		}
		var err error
		result, err = d.mr.RunJob(e, client, SubmitJobParam{
			Name: "randomwriter", NumReduces: 0,
			InputFiles: files, InputSizes: sizes,
			OutputPath: "/rw", OutputReplication: 2,
			MapCPUPerMBNs:    int64(time.Millisecond),
			WritesHDFSOutput: true,
		})
		if err != nil {
			t.Error(err)
		}
	})
	d.cl.RunUntil(30 * time.Minute)
	if result == nil || !result.Status.Complete {
		t.Fatalf("result %+v", result)
	}
	if result.Status.MapsDone != 6 || result.Status.ReducesDone != 0 {
		t.Fatalf("status %+v", result.Status)
	}
	for i := 0; i < 6; i++ {
		path := fmt.Sprintf("/rw/part-m-%05d", i)
		if locs := d.fs.NameNode().LocationsOf(path); len(locs) == 0 {
			t.Errorf("missing output %s", path)
		}
	}
}

// Synthetic input maps (no HDFS) exercise the scheduler without a filesystem.
func TestSyntheticInputNoHDFS(t *testing.T) {
	cl := cluster.New(cluster.Config{Nodes: 4, Seed: 1, DiskReadBW: 110e6,
		DiskWriteBW: 95e6, DiskSeek: 6 * time.Millisecond})
	mr := Deploy(cl, Config{
		JobTracker: 0, TaskTrackers: []int{1, 2},
		MapSlots: 2, ReduceSlots: 1,
		RPCKind: perfmodel.IPoIB, ShuffleKind: perfmodel.IPoIB,
		HeartbeatInterval: time.Second,
	}, nil)
	var result *JobResult
	cl.SpawnOn(3, "submitter", func(e exec.Env) {
		e.Sleep(50 * time.Millisecond)
		var err error
		result, err = mr.RunJob(e, 3, SubmitJobParam{
			Name: "synthetic", NumReduces: 2,
			InputFiles:    []string{"", "", "", ""},
			InputSizes:    []int64{4 << 20, 4 << 20, 4 << 20, 4 << 20},
			OutputPath:    "/none",
			MapCPUPerMBNs: int64(time.Millisecond), ReduceCPUPerMBNs: int64(time.Millisecond),
		})
		if err != nil {
			t.Error(err)
		}
	})
	cl.RunUntil(20 * time.Minute)
	if result == nil || !result.Status.Complete {
		t.Fatalf("result %+v", result)
	}
}

func TestTableIMethodMixAppears(t *testing.T) {
	reg := metrics.New()
	d := newTestDeployment(t, 3, core.ModeBaseline, reg)
	client := 4
	d.cl.SpawnOn(client, "submitter", func(e exec.Env) {
		e.Sleep(100 * time.Millisecond)
		files, sizes := writeInputs(t, e, d, client, 4, 8<<20)
		if files == nil {
			return
		}
		if _, err := d.mr.RunJob(e, client, SubmitJobParam{
			Name: "sort", NumReduces: 2,
			InputFiles: files, InputSizes: sizes,
			OutputPath: "/out", OutputReplication: 1,
			MapCPUPerMBNs: int64(time.Millisecond), ReduceCPUPerMBNs: int64(time.Millisecond),
			WritesHDFSOutput: true,
		}); err != nil {
			t.Error(err)
		}
	})
	d.cl.RunUntil(30 * time.Minute)
	have := map[string]core.SendRow{}
	for _, r := range core.SendRows(reg.Snapshot(0)) {
		have[r.Kind.String()] = r
	}
	for _, want := range []string{
		"mapred.TaskUmbilicalProtocol.getTask",
		"mapred.TaskUmbilicalProtocol.ping",
		"mapred.TaskUmbilicalProtocol.statusUpdate",
		"mapred.TaskUmbilicalProtocol.done",
		"mapred.TaskUmbilicalProtocol.commitPending",
		"mapred.TaskUmbilicalProtocol.canCommit",
		"mapred.TaskUmbilicalProtocol.getMapCompletionEvents",
		"mapred.InterTrackerProtocol.heartbeat",
		"hdfs.ClientProtocol.getFileInfo",
		"hdfs.ClientProtocol.getBlockLocations",
		"hdfs.ClientProtocol.mkdirs",
		"hdfs.ClientProtocol.create",
		"hdfs.ClientProtocol.renewLease",
		"hdfs.ClientProtocol.addBlock",
		"hdfs.ClientProtocol.complete",
		"hdfs.ClientProtocol.rename",
		"hdfs.DatanodeProtocol.blockReceived",
	} {
		if _, ok := have[want]; !ok {
			t.Errorf("missing Table I row %s", want)
		}
	}
	// statusUpdate is the fat call: its Algorithm-1 adjustment count must
	// exceed small calls like ping, matching Table I's pattern.
	if have["mapred.TaskUmbilicalProtocol.statusUpdate"].AvgAdjustments <=
		have["mapred.TaskUmbilicalProtocol.ping"].AvgAdjustments {
		t.Errorf("statusUpdate adjustments (%v) should exceed ping (%v)",
			have["mapred.TaskUmbilicalProtocol.statusUpdate"].AvgAdjustments,
			have["mapred.TaskUmbilicalProtocol.ping"].AvgAdjustments)
	}
}

func TestRPCoIBModeJobCompletes(t *testing.T) {
	d := newTestDeployment(t, 3, core.ModeRPCoIB, nil)
	client := 4
	var result *JobResult
	d.cl.SpawnOn(client, "submitter", func(e exec.Env) {
		e.Sleep(100 * time.Millisecond)
		files, sizes := writeInputs(t, e, d, client, 4, 8<<20)
		if files == nil {
			return
		}
		var err error
		result, err = d.mr.RunJob(e, client, SubmitJobParam{
			Name: "sort-ib", NumReduces: 2,
			InputFiles: files, InputSizes: sizes,
			OutputPath: "/out", OutputReplication: 1,
			MapCPUPerMBNs: int64(time.Millisecond), ReduceCPUPerMBNs: int64(time.Millisecond),
			WritesHDFSOutput: true,
		})
		if err != nil {
			t.Error(err)
		}
	})
	d.cl.RunUntil(30 * time.Minute)
	if result == nil || !result.Status.Complete {
		t.Fatalf("result %+v", result)
	}
}

func TestSchedulerLocality(t *testing.T) {
	// With every input replica on the slave nodes that run trackers, maps
	// should read mostly locally (HDFS read path prefers local replicas).
	d := newTestDeployment(t, 4, core.ModeBaseline, nil)
	client := 5
	d.cl.SpawnOn(client, "submitter", func(e exec.Env) {
		e.Sleep(100 * time.Millisecond)
		files, sizes := writeInputs(t, e, d, client, 8, 8<<20)
		if files == nil {
			return
		}
		if _, err := d.mr.RunJob(e, client, SubmitJobParam{
			Name: "scan", NumReduces: 0,
			InputFiles: files, InputSizes: sizes,
			OutputPath:    "/scan-out",
			MapCPUPerMBNs: int64(time.Millisecond),
		}); err != nil {
			t.Error(err)
		}
	})
	d.cl.RunUntil(30 * time.Minute)
	launched := int64(0)
	for _, tt := range d.mr.tts {
		launched += tt.TasksLaunched
	}
	if launched != 8 {
		t.Fatalf("launched=%d want 8", launched)
	}
}
