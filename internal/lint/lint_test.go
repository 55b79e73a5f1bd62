package lint_test

import (
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
