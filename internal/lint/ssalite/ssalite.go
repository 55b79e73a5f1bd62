// Package ssalite is the lint suite's lightweight dataflow layer (DESIGN.md
// S25): per-function control-flow graphs, a worklist dataflow solver, and
// an index from function objects to their bodies, all derived from the
// `go/ast` + `go/types` information the loader already produces.
//
// It is "SSA-lite" in the sense of golang.org/x/tools/go/cfg rather than
// go/ssa: no value renaming or instruction lowering — blocks hold the
// original AST statements in execution order, so analyzers keep reporting
// against source positions — but enough structure that an analyzer can be
// flow-sensitive (facts per CFG edge rather than per syntax tree walk),
// branch-sensitive (true/false edges out of conditions), and interprocedural
// (a callee resolved through go/types maps back to its Func, so an analyzer
// can summarise it). The driver builds one Info per package and shares it with
// every analyzer through analysis.Pass.SSA.
//
// The CFG dialect:
//
//   - Every function (declaration or literal) with a body becomes a Func
//     with an Entry block, a synthetic Exit block, and one Block per
//     straight-line run of statements. Composite statements are decomposed:
//     an if contributes its init and condition to the current block and its
//     arms become successor blocks; the if node itself never appears.
//   - A block that ends in a two-way branch carries the controlling node in
//     Ctrl (the condition expression, or the range/switch statement) and
//     exactly one EdgeTrue and one EdgeFalse successor. `for {}` emits a
//     single unconditional back edge, so a loop with no exit is a CFG
//     region from which Exit is unreachable.
//   - `return` and calls to the builtin panic edge to Exit (panic terminates
//     the goroutine, so it is a legitimate way out of a poller loop).
//     `select {}` and an empty-body for loop have no successors at all.
//   - Defer bodies are not in the CFG (they run at exit, after the facts
//     under analysis are settled); they are collected in Func.Defers for
//     analyzers that credit deferred cleanup.
package ssalite

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EdgeKind classifies a CFG edge.
type EdgeKind uint8

const (
	// EdgeNext is an unconditional transfer.
	EdgeNext EdgeKind = iota
	// EdgeTrue leaves a branching block when its Ctrl holds (an if/for
	// condition is true, a range has another element, a switch case matches).
	EdgeTrue
	// EdgeFalse is the complementary edge out of a branching block.
	EdgeFalse
)

// Edge is one directed CFG edge.
type Edge struct {
	To   *Block
	Kind EdgeKind
}

// Block is one basic block: Nodes execute in order, then control follows one
// of Succs. A block with a non-nil Ctrl ends in a two-way branch decided by
// that node.
type Block struct {
	Index int
	Nodes []ast.Node
	Ctrl  ast.Node // controlling node for True/False successors, if any
	Succs []Edge
	what  string // debug label ("entry", "if.then", "for.head", ...)
}

// String returns a short debug label.
func (b *Block) String() string { return b.what }

// Func is the SSA-lite view of one function or function literal.
type Func struct {
	// Node is the *ast.FuncDecl or *ast.FuncLit.
	Node ast.Node
	// Obj is the declared function object; nil for literals.
	Obj  *types.Func
	Body *ast.BlockStmt

	Entry  *Block
	Exit   *Block
	Blocks []*Block
	// Defers lists the function's defer statements (not part of the CFG).
	Defers []*ast.DeferStmt
}

// Info is the SSA-lite view of one type-checked package: every function's
// CFG plus the object-to-body index that resolves package-local callees.
// Build one with Build; the lint driver exposes it to analyzers as Pass.SSA.
type Info struct {
	Fset      *token.FileSet
	Pkg       *types.Package
	TypesInfo *types.Info

	// Funcs lists every function and function literal with a body, in
	// source order (literals after their enclosing declaration).
	Funcs []*Func

	byObj map[*types.Func]*Func
}

// Build constructs the SSA-lite view of one package.
func Build(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Info {
	in := &Info{
		Fset: fset, Pkg: pkg, TypesInfo: info,
		byObj: map[*types.Func]*Func{},
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			decl, ok := n.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				return true
			}
			obj, _ := info.Defs[decl.Name].(*types.Func)
			fn := &Func{Node: decl, Obj: obj, Body: decl.Body}
			in.addFunc(fn)
			return false // literals inside are collected by addFunc
		})
	}
	// Top-level function literals (package var initializers).
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncDecl); ok {
				return false
			}
			if lit, ok := n.(*ast.FuncLit); ok {
				in.addFunc(&Func{Node: lit, Body: lit.Body})
				return false
			}
			return true
		})
	}
	return in
}

// addFunc registers fn, builds its CFG, and recurses into nested function
// literals.
func (in *Info) addFunc(fn *Func) {
	in.Funcs = append(in.Funcs, fn)
	if fn.Obj != nil {
		in.byObj[fn.Obj] = fn
	}
	buildCFG(fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			in.addFunc(&Func{Node: lit, Body: lit.Body})
			return false
		}
		return true
	})
}

// FuncOf returns the Func whose body implements obj in this package, or nil
// (external function, interface method, or bodyless declaration).
func (in *Info) FuncOf(obj *types.Func) *Func { return in.byObj[obj] }
