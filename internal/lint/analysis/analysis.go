// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis core types (Analyzer, Pass, Diagnostic).
//
// The container this repo builds in has no module proxy access, so the real
// x/tools framework cannot be vendored; this package mirrors its API shapes
// closely enough that every analyzer under internal/lint can be ported to
// the upstream framework (and run under `go vet -vettool`) by switching one
// import once x/tools is available. Only the pieces the rpcoiblint suite
// needs exist: single-pass analyzers over one type-checked package, position
// -carrying diagnostics, and an arbitrary per-package result value.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"rpcoib/internal/lint/ssalite"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is the one-paragraph help text: the invariant enforced and the
	// escape hatch, if any.
	Doc string
	// Run applies the analyzer to one package. The returned value is
	// per-package analyzer output (e.g. collected facts) that a driver may
	// aggregate across packages; analyzers with nothing to export return nil.
	Run func(*Pass) (any, error)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// SSA is the package's SSA-lite view (per-function CFGs, the worklist
	// solver, and the function-object index), built once per package by the
	// driver and shared by every analyzer. This is the one deliberate
	// departure from the upstream x/tools API shape (which delivers the same
	// facility through ctrlflow/buildssa dependency analyzers); porting an
	// SSA-lite analyzer upstream means swapping this field for the
	// corresponding Analyzer.Requires result.
	SSA *ssalite.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
