// Package lint is the rpcoiblint suite driver: it loads the module's
// packages, runs each analyzer over the packages its invariant applies to,
// and aggregates the metricnames facts into the two-way golden comparison.
//
// The suite enforces at compile time what the engine otherwise only catches
// at runtime under a lucky chaos seed (DESIGN.md S20):
//
//	determinism      no wall clock / global PRNG / map-order effects in
//	                 engine packages (replay invariant, S18)
//	metricnames      metric families are package-level consts that match
//	                 metric_names.golden both ways (S16 golden guard)
//	statusexhaustive status-code switches cover every status* constant
//	regmem           every bufpool acquisition and MemoryBudget reservation
//	                 reaches exactly one Put/Release on every CFG path
//	                 (ledger invariant Gets==Puts) and is never used
//	                 afterwards
//
// regmem rides on the SSA-lite facility (internal/lint/ssalite):
// per-function CFGs and a worklist dataflow solver, built once per package
// and handed to every analyzer as Pass.SSA.
package lint

import (
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"rpcoib/internal/lint/analysis"
	"rpcoib/internal/lint/determinism"
	"rpcoib/internal/lint/loader"
	"rpcoib/internal/lint/metricnames"
	"rpcoib/internal/lint/regmem"
	"rpcoib/internal/lint/ssalite"
	"rpcoib/internal/lint/statusexhaustive"
)

// Analyzers is the full suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	metricnames.Analyzer,
	statusexhaustive.Analyzer,
	regmem.Analyzer,
}

// engineScope lists the package-path infixes the determinism analyzer
// patrols: the engine and substrate packages whose behaviour must replay
// bit-identically under a seed. internal/exec is included so that the
// real-mode environment's legitimate wall-clock reads stay visibly
// allowlisted with //lint:wallclock justifications.
var engineScope = []string{
	"internal/core", "internal/netsim", "internal/ibverbs",
	"internal/bufpool", "internal/faultsim", "internal/sim",
	"internal/cluster", "internal/hdfs", "internal/mapred",
	"internal/hbase", "internal/exec",
}

// InScope reports whether analyzer a applies to package path pkgPath. The
// lint packages themselves are exempt (fixtures and the framework mention
// the forbidden calls by name).
func InScope(a *analysis.Analyzer, pkgPath string) bool {
	if strings.Contains(pkgPath, "internal/lint") {
		return false
	}
	if a.Name != determinism.Analyzer.Name {
		return true
	}
	for _, infix := range engineScope {
		if strings.HasSuffix(pkgPath, infix) || strings.Contains(pkgPath, infix+"/") {
			return true
		}
	}
	return false
}

// Options configures one suite run.
type Options struct {
	// Golden is the metric-name golden file; empty means
	// <module root>/internal/faultsim/testdata/metric_names.golden.
	Golden string
	// WriteGolden regenerates the golden file from the static view instead
	// of comparing against it.
	WriteGolden bool
	// Only, when non-empty, restricts the run to the named analyzers. A
	// name that matches no analyzer is an error.
	Only map[string]bool
}

// Finding is one reported diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// Run executes the suite over the packages matched by patterns and returns
// every finding, sorted by position.
func Run(patterns []string, opts Options) ([]Finding, error) {
	if err := checkOnly(opts.Only); err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadModule(patterns...)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	var facts []*metricnames.Facts
	metricsRan := false
	for _, pkg := range pkgs {
		// One SSA-lite build (CFGs, function index) per package, shared by
		// every analyzer in the suite.
		ssa := ssalite.Build(pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
		for _, a := range Analyzers {
			if len(opts.Only) > 0 && !opts.Only[a.Name] {
				continue
			}
			if !InScope(a, pkg.PkgPath) {
				continue
			}
			pass := &analysis.Pass{
				Analyzer: a, Fset: pkg.Fset, Files: pkg.Files,
				Pkg: pkg.Types, TypesInfo: pkg.Info, SSA: ssa,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				findings = append(findings, Finding{Pos: pkg.Fset.Position(d.Pos), Analyzer: name, Message: d.Message})
			}
			res, err := a.Run(pass)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.PkgPath, err)
			}
			if a.Name == metricnames.Analyzer.Name {
				metricsRan = true
				if f, ok := res.(*metricnames.Facts); ok {
					facts = append(facts, f)
				}
			}
		}
	}

	if metricsRan {
		gf, err := goldenFindings(pkgs, facts, opts)
		if err != nil {
			return nil, err
		}
		findings = append(findings, gf...)
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return findings, nil
}

// checkOnly names every entry of only that matches no analyzer: a misspelt
// or retired name would otherwise run nothing and pass as a clean lint.
func checkOnly(only map[string]bool) error {
	known := map[string]bool{}
	for _, a := range Analyzers {
		known[a.Name] = true
	}
	var unknown []string
	for name := range only {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return fmt.Errorf("no analyzer named %s (-list prints the suite)", strings.Join(unknown, ", "))
}

// goldenFindings performs the aggregate half of metricnames: expand the
// prefix graph, then compare (or rewrite) the golden file.
func goldenFindings(pkgs []*loader.Package, facts []*metricnames.Facts, opts Options) ([]Finding, error) {
	families, problems := metricnames.Expand(facts)
	var findings []Finding
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	for _, p := range problems {
		pos := token.Position{}
		if fset != nil {
			pos = fset.Position(p.Pos)
		}
		findings = append(findings, Finding{Pos: pos, Analyzer: metricnames.Analyzer.Name, Message: p.Message})
	}

	golden := opts.Golden
	if golden == "" {
		root, err := moduleRoot()
		if err != nil {
			return nil, err
		}
		golden = filepath.Join(root, "internal", "faultsim", "testdata", "metric_names.golden")
	}

	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)

	if opts.WriteGolden {
		if err := os.WriteFile(golden, []byte(strings.Join(names, "\n")+"\n"), 0o644); err != nil {
			return nil, err
		}
		return findings, nil
	}

	data, err := os.ReadFile(golden)
	if err != nil {
		return nil, fmt.Errorf("metricnames golden (regenerate with -write-metric-golden): %v", err)
	}
	want := map[string]int{} // name -> 1-based golden line
	for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if line != "" {
			want[line] = i + 1
		}
	}
	for _, n := range names {
		if _, ok := want[n]; !ok {
			pos := token.Position{}
			if fset != nil {
				pos = fset.Position(families[n][0])
			}
			findings = append(findings, Finding{Pos: pos, Analyzer: metricnames.Analyzer.Name,
				Message: fmt.Sprintf("metric family %q is registered but missing from %s (update it deliberately, or run -write-metric-golden)", n, golden)})
		}
	}
	for n, line := range want {
		if _, ok := families[n]; !ok {
			findings = append(findings, Finding{Pos: token.Position{Filename: golden, Line: line}, Analyzer: metricnames.Analyzer.Name,
				Message: fmt.Sprintf("golden metric family %q is no longer registered anywhere", n)})
		}
	}
	return findings, nil
}

func moduleRoot() (string, error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out)), nil
}
