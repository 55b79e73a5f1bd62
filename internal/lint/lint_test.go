package lint_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rpcoib/internal/lint"
)

// suite is the full analyzer roster TestSelfLint demands. A missing name
// here means someone unplugged an invariant from the gate.
var suite = []string{"determinism", "metricnames", "statusexhaustive", "regmem"}

// TestSelfLint runs the full suite over the module itself — the same
// invocation as `make lint` / `go run ./cmd/rpcoiblint ./...` — and demands
// zero findings under all four analyzers. Every real violation must either
// be fixed or carry a justified //lint:wallclock marker, and
// metric_names.golden must match the statically enumerable family set both
// ways.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("self-lint shells out to go list -export over the whole module")
	}
	registered := map[string]bool{}
	for _, a := range lint.Analyzers {
		registered[a.Name] = true
	}
	for _, name := range suite {
		if !registered[name] {
			t.Errorf("analyzer %s is missing from lint.Analyzers", name)
		}
	}
	if len(lint.Analyzers) != len(suite) {
		t.Errorf("lint.Analyzers has %d analyzers, want %d", len(lint.Analyzers), len(suite))
	}
	findings, err := lint.Run([]string{"rpcoib/..."}, lint.Options{})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestRunRejectsUnknownAnalyzer: an Only name that matches no analyzer — a
// typo, or one retired from the suite — is an error that names it, not a
// clean run of nothing. The known name beside them is not named.
func TestRunRejectsUnknownAnalyzer(t *testing.T) {
	only := map[string]bool{"nosuch": true, "lockcall": true, "regmem": true}
	_, err := lint.Run([]string{"rpcoib/internal/lint/analysis"}, lint.Options{Only: only})
	if err == nil {
		t.Fatal("Run with unknown analyzer names succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "lockcall, nosuch") || strings.Contains(msg, "regmem") {
		t.Fatalf("error %q does not name exactly the unknown analyzers", msg)
	}
}

// TestCIMatrixMatchesSuite: the CI lint job has one matrix leg per analyzer
// in the suite, besides "all", and no other: a leg for a retired name would
// run nothing, and an analyzer without a leg is never named in a job title.
func TestCIMatrixMatchesSuite(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var legs []string
	for _, leg := range matrixAnalyzers(string(data)) {
		if leg != "all" {
			legs = append(legs, leg)
		}
	}
	var suite []string
	for _, a := range lint.Analyzers {
		suite = append(suite, a.Name)
	}
	slices.Sort(legs)
	slices.Sort(suite)
	if !slices.Equal(legs, suite) {
		t.Fatalf("ci.yml analyzer legs %v, want the suite %v", legs, suite)
	}
}

// matrixAnalyzers returns the list items under the workflow's "analyzer:"
// matrix key, in order.
func matrixAnalyzers(yml string) []string {
	var legs []string
	in := false
	for _, line := range strings.Split(yml, "\n") {
		item := strings.TrimSpace(line)
		switch {
		case item == "analyzer:":
			in = true
		case !in || item == "" || strings.HasPrefix(item, "#"):
		case strings.HasPrefix(item, "- "):
			legs = append(legs, strings.TrimSpace(item[2:]))
		default:
			in = false
		}
	}
	return legs
}
