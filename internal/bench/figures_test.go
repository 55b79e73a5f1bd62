package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFiguresMatchResults regenerates the two cheap result files in process —
// the runner calls cmd/rpcbench and cmd/profilerpc make at their default
// flags — and byte-compares them with the committed results/, so an engine
// change that moves a simulated number fails here rather than leaving
// EXPERIMENTS.md quoting a stale file. The four long figures (and the
// binaries' own composition of these two) are diffed by `make figures` in CI.
func TestFiguresMatchResults(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates results/rpcbench.txt and results/profile.txt (~25 s)")
	}
	var h Harness
	figures := []struct {
		file string
		run  func(w io.Writer)
	}{
		{"rpcbench.txt", func(w io.Writer) {
			const iters = 200
			h.Fig5aLatency(w, nil, iters)
			fmt.Fprintln(w)
			h.Fig5bThroughput(w, nil, iters)
			fmt.Fprintln(w)
			h.AblationRDMAThreshold(w, 64<<10, nil, iters)
			fmt.Fprintln(w)
			h.AblationPoolPolicy(w, 512, iters)
			fmt.Fprintln(w)
			h.AblationReaders(w, nil, 32, iters)
			fmt.Fprintln(w)
		}},
		{"profile.txt", func(w io.Writer) {
			res := h.Table1Profile(w, 4)
			fmt.Fprintln(w)
			Fig3SizeLocality(w, res)
			fmt.Fprintln(w)
			h.Fig1AllocRatio(w, nil, 20)
		}},
	}
	for _, fig := range figures {
		t.Run(fig.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "results", fig.file))
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			fig.run(&got)
			if got.String() == string(want) {
				return
			}
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			i := 0
			for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
				i++
			}
			line := func(lines []string) string {
				if i < len(lines) {
					return lines[i]
				}
				return "<end of output>"
			}
			t.Fatalf("results/%s no longer regenerates; first difference at line %d:\n  code: %s\n  file: %s\n(regenerate with the command EXPERIMENTS.md lists and reconcile the numbers it quotes)",
				fig.file, i+1, line(gl), line(wl))
		})
	}
}
