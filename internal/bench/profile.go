package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/hdfs"
	"rpcoib/internal/mapred"
	"rpcoib/internal/metrics"
	"rpcoib/internal/workloads"
)

// Table1Result carries the profiling run behind Table I and Figure 3: what
// the Sort job recorded in the metrics registry, read through the core views
// (core.SendRows, core.SizeLocalityOf).
type Table1Result struct {
	Profile  metrics.Snapshot
	SortTime time.Duration
}

// Table1Profile reproduces Table I's setting: a Sort job of dataGB on 9
// nodes (1 master + 8 slaves) with the default (socket) Hadoop RPC, RPC
// invocation profiling enabled.
func Table1Profile(w io.Writer, dataGB int) *Table1Result {
	res := &Table1Result{}
	res.Profile = observed(func() time.Duration {
		hc := NewHadoopCluster(HadoopConfig{Slaves: 8})
		end := hc.RunClient(6*time.Hour, func(e exec.Env) {
			if _, err := workloads.RandomWriter(e, hc.MR, 0, hc.Slaves, int64(dataGB)*GB, "/rw"); err != nil {
				panic(err)
			}
			job, err := workloads.Sort(e, hc.MR, hc.FS, 0, "/rw", "/sort-out", hc.Slaves*4)
			if err != nil {
				panic(err)
			}
			res.SortTime = job.Duration
			hc.MR.Stop()
			hc.FS.Stop()
		})
		recordRun(fmt.Sprintf("table1_profile/gb=%d", dataGB), end)
		return end
	})
	if w != nil {
		Fprintf(w, "Table I: RPC invocation profiling in a MapReduce Sort job (%d GB, 9 nodes)\n", dataGB)
		Fprintf(w, "%s", core.FormatTableI(res.Profile))
		Fprintf(w, "(sort job time: %v)\n", res.SortTime)
	}
	return res
}

// Fig3Series is one Figure 3 line: a call kind's spread over the size
// classes and its locality.
type Fig3Series struct {
	Name string
	Kind core.CallKind
	core.SizeLocality
}

// Fig3SizeLocality extracts the paper's three series — JT heartbeat,
// TT statusUpdate, NN getFileInfo — from a Table I profiling run.
func Fig3SizeLocality(w io.Writer, res *Table1Result) []Fig3Series {
	series := []Fig3Series{
		{Name: "JT_heartbeat", Kind: core.CallKind{Protocol: mapred.InterTrackerProtocol, Method: "heartbeat"}},
		{Name: "TT_statusUpdate", Kind: core.CallKind{Protocol: mapred.UmbilicalProtocol, Method: "statusUpdate"}},
		{Name: "NN_getFileInfo", Kind: core.CallKind{Protocol: hdfs.ClientProtocol, Method: "getFileInfo"}},
	}
	Fprintf(w, "Figure 3: message size locality (fraction of consecutive calls in the same size class)\n")
	Fprintf(w, "%-18s %8s %9s  size-class histogram\n", "series", "calls", "locality")
	for i := range series {
		s := &series[i]
		s.SizeLocality = core.SizeLocalityOf(res.Profile, s.Kind)
		classes := make([]int, 0, len(s.Classes))
		for c := range s.Classes {
			classes = append(classes, c)
		}
		sort.Ints(classes)
		Fprintf(w, "%-18s %8d %8.1f%%  ", s.Name, s.Calls, 100*s.Locality)
		for _, c := range classes {
			Fprintf(w, "%dB:%d ", c, s.Classes[c])
		}
		Fprintf(w, "\n")
	}
	return series
}
