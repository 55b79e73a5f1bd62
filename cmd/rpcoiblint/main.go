// Command rpcoiblint runs the project's static-analysis suite (DESIGN.md
// S20) over the module:
//
//	go run ./cmd/rpcoiblint ./...
//
// It exits 1 when any invariant is violated and 2 when it cannot run (an
// -only name that matches no analyzer, a package that does not load). The
// analyzers and their escape hatches are documented in README.md ("Static
// analysis") and on each package under internal/lint. Flags:
//
//	-only determinism,regmem     run a subset of analyzers
//	-golden <path>               metric-name golden file (default: the
//	                             faultsim runtime golden, so the static and
//	                             runtime guards can never disagree)
//	-write-metric-golden         regenerate the golden from the static view
//	-list                        print the analyzers and exit
//
// The suite is built on internal/lint/analysis, a minimal stdlib-only
// mirror of golang.org/x/tools/go/analysis (this build environment has no
// module proxy); porting an analyzer to the upstream framework — and hence
// to `go vet -vettool` — is a one-import change once x/tools is available.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rpcoib/internal/lint"
)

func main() {
	var (
		only        = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		golden      = flag.String("golden", "", "metric-name golden file (default: internal/faultsim/testdata/metric_names.golden)")
		writeGolden = flag.Bool("write-metric-golden", false, "regenerate the metric-name golden from the static view")
		list        = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers {
			fmt.Printf("%-17s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	opts := lint.Options{Golden: *golden, WriteGolden: *writeGolden}
	if *only != "" {
		opts.Only = map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			if n = strings.TrimSpace(n); n != "" {
				opts.Only[n] = true
			}
		}
	}

	findings, err := lint.Run(patterns, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpcoiblint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "rpcoiblint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
