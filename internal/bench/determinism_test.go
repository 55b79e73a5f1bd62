package bench

import (
	"testing"
	"time"

	"rpcoib/internal/exec"
	"rpcoib/internal/workloads"
)

// TestMacroDeterminism runs the same small Sort job twice and requires
// bit-identical virtual durations: the property that makes every number in
// EXPERIMENTS.md reproducible.
func TestMacroDeterminism(t *testing.T) {
	run := func() (time.Duration, time.Duration) {
		hc := new(Harness).NewHadoopCluster(HadoopConfig{Slaves: 4, Seed: 42})
		var rw, sort time.Duration
		hc.RunClient(2*time.Hour, func(e exec.Env) {
			r, err := workloads.RandomWriter(e, hc.MR, 0, hc.Slaves, 1*GB, "/rw")
			if err != nil {
				t.Error(err)
				return
			}
			rw = r.Duration
			s, err := workloads.Sort(e, hc.MR, hc.FS, 0, "/rw", "/out", hc.Slaves*4)
			if err != nil {
				t.Error(err)
				return
			}
			sort = s.Duration
			hc.MR.Stop()
			hc.FS.Stop()
		})
		return rw, sort
	}
	rw1, sort1 := run()
	rw2, sort2 := run()
	if rw1 != rw2 || sort1 != sort2 {
		t.Fatalf("nondeterministic macro runs: rw %v vs %v, sort %v vs %v", rw1, rw2, sort1, sort2)
	}
	if sort1 == 0 {
		t.Fatal("sort did not run")
	}
	t.Logf("deterministic: randomwriter=%v sort=%v", rw1, sort1)
}

// TestTemporaryDirCleanedUp verifies the output committer removes
// _temporary after job completion.
func TestTemporaryDirCleanedUp(t *testing.T) {
	hc := new(Harness).NewHadoopCluster(HadoopConfig{Slaves: 3, Seed: 7})
	hc.RunClient(time.Hour, func(e exec.Env) {
		if _, err := workloads.RandomWriter(e, hc.MR, 0, hc.Slaves, 256<<20, "/rw"); err != nil {
			t.Error(err)
			return
		}
		dfs := hc.FS.NewClient(0)
		if st, _ := dfs.GetFileInfo(e, "/rw/_temporary"); st.Exists {
			t.Error("_temporary survived job cleanup")
		}
		entries, err := dfs.GetListing(e, "/rw")
		if err != nil || len(entries) == 0 {
			t.Errorf("outputs missing: %v %v", entries, err)
		}
		hc.MR.Stop()
		hc.FS.Stop()
	})
}
