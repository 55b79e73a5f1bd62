package ssalite

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// load type-checks one source string and returns its Info.
func load(t *testing.T, src string) *Info {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return Build(fset, []*ast.File{f}, pkg, info)
}

func fn(t *testing.T, in *Info, name string) *Func {
	t.Helper()
	for _, f := range in.Funcs {
		if f.Obj != nil && f.Obj.Name() == name {
			return f
		}
	}
	t.Fatalf("no function %q", name)
	return nil
}

const cfgSrc = `package p

func spin() {
	for {
	}
}

func spinCall() {
	spin()
}

func poller(done chan struct{}, work chan int) {
	for {
		select {
		case <-done:
			return
		case v := <-work:
			_ = v
		}
	}
}

func bounded(n int) int {
	sum := 0
	for i := 0; i < n; i++ {
		sum += i
	}
	return sum
}

func panics(x int) {
	for {
		if x > 0 {
			panic("boom")
		}
	}
}

func ranged(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func labeled(xs []int) {
outer:
	for {
		for _, x := range xs {
			if x == 0 {
				break outer
			}
		}
	}
}

func switcher(x int) int {
	switch x {
	case 0:
		return 1
	case 1:
		fallthrough
	case 2:
		return 2
	}
	return 3
}
`

// exitReachable reports whether a DFS from fn.Entry along CFG edges reaches
// fn.Exit.
func exitReachable(fn *Func) bool {
	seen := make([]bool, len(fn.Blocks))
	var visit func(b *Block) bool
	visit = func(b *Block) bool {
		if seen[b.Index] {
			return false
		}
		seen[b.Index] = true
		if b == fn.Exit {
			return true
		}
		for _, e := range b.Succs {
			if visit(e.To) {
				return true
			}
		}
		return false
	}
	return visit(fn.Entry)
}

// TestExitReachable pins the CFG shapes regmem's path analysis relies on: a
// bare spin loop has no way out; select-on-done pollers, bounded loops,
// panicking loops, ranges, labeled breaks, and switches all reach Exit.
func TestExitReachable(t *testing.T) {
	in := load(t, cfgSrc)
	want := map[string]bool{
		"spin":   false,
		"poller": true, "bounded": true, "panics": true,
		"ranged": true, "labeled": true, "switcher": true,
	}
	for name, w := range want {
		if got := exitReachable(fn(t, in, name)); got != w {
			t.Errorf("exitReachable(%s) = %v, want %v", name, got, w)
		}
	}
}

// TestSolveReachingBranch runs a tiny branch-sensitive flow: count the
// blocks reached on the true side of `x > 0`.
func TestSolveReachingBranch(t *testing.T) {
	in := load(t, `package p
func f(x int) int {
	if x > 0 {
		return 1
	}
	return 0
}`)
	f := fn(t, in, "f")
	type fact struct{ onTrue bool }
	res := f.Solve(Flow{
		Entry:    func() Fact { return fact{} },
		Transfer: func(_ *Block, _ int, _ ast.Node, fa Fact) Fact { return fa },
		Branch: func(b *Block, e Edge, fa Fact) Fact {
			if e.Kind == EdgeTrue {
				return fact{onTrue: true}
			}
			return fa
		},
		Join: func(dst, src Fact) (Fact, bool) {
			if dst == nil {
				return src, true
			}
			d, s := dst.(fact), src.(fact)
			m := fact{onTrue: d.onTrue || s.onTrue}
			return m, m != d
		},
	})
	sawTrue := false
	for b, fa := range res {
		if fa.(fact).onTrue && b != f.Exit {
			sawTrue = true
		}
	}
	if !sawTrue {
		t.Error("no block saw the EdgeTrue fact")
	}
	if ex, ok := res[f.Exit]; !ok || !ex.(fact).onTrue {
		t.Error("exit should join both arms and carry onTrue")
	}
}

// TestCallGraph resolves spinCall's one callee through TypesInfo.Uses, as
// regmem does, and checks that FuncOf maps it back to spin's Func.
func TestCallGraph(t *testing.T) {
	in := load(t, cfgSrc)
	var callees []*types.Func
	ast.Inspect(fn(t, in, "spinCall").Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				callee, _ := in.TypesInfo.Uses[id].(*types.Func)
				callees = append(callees, callee)
			}
		}
		return true
	})
	if len(callees) != 1 || callees[0] == nil || callees[0].Name() != "spin" {
		t.Fatalf("spinCall callees = %v", callees)
	}
	if in.FuncOf(callees[0]) != fn(t, in, "spin") {
		t.Error("FuncOf(spin) mismatch")
	}
}
