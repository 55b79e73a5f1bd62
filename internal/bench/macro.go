package bench

import (
	"fmt"
	"io"
	"time"

	"rpcoib/internal/cloudburst"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/workloads"
)

// SortPoint is one Figure 6(a) measurement.
type SortPoint struct {
	DataGB       int
	Mode         string
	RandomWriter time.Duration
	Sort         time.Duration
}

// Fig6aSort reproduces Figure 6(a): RandomWriter and Sort over the given
// data sizes on a cluster of `slaves` worker nodes (the paper: 64), under
// default Hadoop over IPoIB and under RPCoIB.
func (h *Harness) Fig6aSort(w io.Writer, slaves int, sizesGB []int) []SortPoint {
	if len(sizesGB) == 0 {
		sizesGB = []int{32, 64, 128}
	}
	Fprintf(w, "Figure 6(a): RandomWriter and Sort job execution time (s), %d slaves\n", slaves)
	Fprintf(w, "%8s %8s %14s %10s\n", "data GB", "mode", "RandomWriter", "Sort")
	var points []SortPoint
	run := func(gb int, mode core.Mode) SortPoint {
		hc := h.NewHadoopCluster(HadoopConfig{Slaves: slaves, Mode: mode})
		pt := SortPoint{DataGB: gb, Mode: mode.String()}
		end := hc.RunClient(12*time.Hour, func(e exec.Env) {
			rw, err := workloads.RandomWriter(e, hc.MR, 0, hc.Slaves, int64(gb)*GB, "/rw")
			if err != nil {
				panic(err)
			}
			pt.RandomWriter = rw.Duration
			sort, err := workloads.Sort(e, hc.MR, hc.FS, 0, "/rw", "/sort-out", hc.Slaves*4)
			if err != nil {
				panic(err)
			}
			pt.Sort = sort.Duration
			hc.MR.Stop()
			hc.FS.Stop()
		})
		h.record(fmt.Sprintf("fig6a_sort/mode=%s/gb=%d", pt.Mode, gb), end)
		return pt
	}
	for _, gb := range sizesGB {
		for _, mode := range []core.Mode{core.ModeBaseline, core.ModeRPCoIB} {
			pt := run(gb, mode)
			points = append(points, pt)
			Fprintf(w, "%8d %8s %14.1f %10.1f\n", gb, pt.Mode,
				pt.RandomWriter.Seconds(), pt.Sort.Seconds())
		}
	}
	return points
}

// CloudBurstPoint is one Figure 6(b) bar group.
type CloudBurstPoint struct {
	Mode      string
	Alignment time.Duration
	Filtering time.Duration
	Total     time.Duration
}

// Fig6bCloudBurst reproduces Figure 6(b): the CloudBurst application
// (Alignment 240/48, Filtering 24/24) on 9 nodes under IPoIB and RPCoIB.
func (h *Harness) Fig6bCloudBurst(w io.Writer) []CloudBurstPoint {
	Fprintf(w, "Figure 6(b): CloudBurst job execution time (s), 9 nodes\n")
	Fprintf(w, "%8s %10s %10s %8s\n", "mode", "Alignment", "Filtering", "Total")
	var points []CloudBurstPoint
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModeRPCoIB} {
		hc := h.NewHadoopCluster(HadoopConfig{Slaves: 8, Mode: mode})
		pt := CloudBurstPoint{Mode: mode.String()}
		end := hc.RunClient(6*time.Hour, func(e exec.Env) {
			if err := cloudburst.PrepareInput(e, hc.FS, 0); err != nil {
				panic(err)
			}
			res, err := cloudburst.Run(e, hc.MR, hc.FS, 0)
			if err != nil {
				panic(err)
			}
			pt.Alignment = res.Alignment.Duration
			pt.Filtering = res.Filtering.Duration
			pt.Total = res.Total()
			hc.MR.Stop()
			hc.FS.Stop()
		})
		h.record("fig6b_cloudburst/mode="+pt.Mode, end)
		points = append(points, pt)
		Fprintf(w, "%8s %10.1f %10.1f %8.1f\n", pt.Mode,
			pt.Alignment.Seconds(), pt.Filtering.Seconds(), pt.Total.Seconds())
	}
	return points
}
