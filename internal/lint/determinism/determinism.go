// Package determinism flags wall-clock and global-PRNG use that would break
// bit-identical simulation replay (DESIGN.md S18).
//
// The engine's time and randomness must flow through exec.Env (Now/Sleep/
// Rand) so the discrete-event simulator controls both; a stray time.Now or
// math/rand global silently diverges replays until a chaos seed happens to
// catch it. The analyzer reports:
//
//   - calls to time.Now, time.Since, time.Until, time.Sleep, time.After,
//     time.Tick, time.NewTimer, time.NewTicker, time.AfterFunc;
//   - calls to math/rand's global-source functions (rand.Intn, rand.Int63,
//     rand.Float64, rand.Perm, rand.Shuffle, rand.Seed, ...). Explicitly
//     seeded sources (rand.New(rand.NewSource(seed))) are allowed: they are
//     deterministic by construction;
//   - range-over-map loops whose body drives order-sensitive effects (queue
//     puts, transport sends and closes, process spawns, formatted output —
//     and, since S22, kernel scheduling and cross-shard merge traffic:
//     At/After/Post/PostAt/LocalAt/Push/Emit): map iteration order varies
//     between runs, so such loops must iterate a sorted key slice instead;
//   - select statements with more than one communication case (S22): when
//     several cases are ready the runtime picks uniformly at random, so any
//     goroutine hand-off a simulated result depends on must use a
//     single-case receive (or the kernel's deterministic queue primitives)
//     instead. The sharded kernel itself no longer hands off between
//     goroutines (S37); the rule guards whatever code adds one.
//
// Real-mode code that legitimately reads the wall clock (internal/exec's
// RealEnv) carries an allowlist marker with a justification:
//
//	//lint:wallclock real-mode Env: wall time IS the environment's clock
//
// on the flagged line or the line above. A marker with no justification is
// itself a finding.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"rpcoib/internal/lint/analysis"
)

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "flag wall-clock, global math/rand, and map-iteration-order effects that break deterministic replay",
	Run:  run,
}

// marker is the allowlist comment prefix.
const marker = "//lint:wallclock"

// wallclock lists forbidden time package functions by name.
var wallclock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// globalRand lists math/rand package-level functions that draw from the
// process-global source. New and NewSource are absent deliberately.
var globalRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// orderSensitive lists method names that publish effects whose order is
// observable by the rest of the simulation (queue hand-offs, fabric sends,
// process spawns). A map-range body reaching one of these is flagged. Close
// is on the list because closing a connection sends a FIN over the fabric
// and closing a queue wakes its waiters: Fig 6(a)'s 128 GB Sort varied by a
// second from run to run until reduces closed their shuffle connections in
// sorted order.
var orderSensitive = map[string]bool{
	"Put": true, "TryPut": true, "TryPutUnbounded": true,
	"Send": true, "SendSized": true, "SendPooled": true,
	"Spawn": true, "Close": true,
	// S22 sharded-kernel surface: event scheduling and cross-shard merge
	// traffic observe their issue order (event seq numbers, mailbox keys).
	"At": true, "After": true, "Post": true, "PostAt": true,
	"LocalAt": true, "Push": true, "Emit": true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		allow := markerLines(pass, f)
		report := func(pos token.Pos, format string, args ...any) {
			line := pass.Fset.Position(pos).Line
			if j, ok := allow[line]; ok {
				if strings.TrimSpace(j) == "" {
					pass.Reportf(pos, "%s marker needs a justification", marker)
				}
				return
			}
			if j, ok := allow[line-1]; ok {
				if strings.TrimSpace(j) == "" {
					pass.Reportf(pos, "%s marker needs a justification", marker)
				}
				return
			}
			pass.Reportf(pos, format, args...)
		}

		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := callee(pass.TypesInfo, n); fn != nil && fn.Pkg() != nil {
					sig, _ := fn.Type().(*types.Signature)
					pkgLevel := sig != nil && sig.Recv() == nil
					switch {
					case fn.Pkg().Path() == "time" && pkgLevel && wallclock[fn.Name()]:
						report(n.Pos(), "time.%s reads the wall clock; route through exec.Env (Now/Sleep) so simulation replay stays bit-identical", fn.Name())
					case fn.Pkg().Path() == "math/rand" && pkgLevel && globalRand[fn.Name()]:
						report(n.Pos(), "math/rand.%s draws from the global PRNG; use the environment's seeded source (exec.Env.Rand) instead", fn.Name())
					}
				}
			case *ast.RangeStmt:
				if t := pass.TypesInfo.Types[n.X].Type; t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						if pos, name := orderSensitiveCall(pass.TypesInfo, n.Body); pos.IsValid() {
							report(pos, "%s inside a range over a map: iteration order varies between runs; iterate a sorted key slice instead", name)
						}
					}
				}
			case *ast.SelectStmt:
				if n.Body != nil && len(n.Body.List) > 1 {
					report(n.Select, "select with %d cases resolves ready cases by runtime coin flip; use a single-case receive or a deterministic queue/mailbox hand-off", len(n.Body.List))
				}
			}
			return true
		})
	}
	return nil, nil
}

// markerLines maps line number -> justification text for every allowlist
// marker comment in f.
func markerLines(pass *analysis.Pass, f *ast.File) map[int]string {
	m := map[int]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, marker) {
				m[pass.Fset.Position(c.Pos()).Line] = strings.TrimPrefix(c.Text, marker)
			}
		}
	}
	return m
}

// callee resolves the called function or method, or nil.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// orderSensitiveCall reports the first order-sensitive effect in body: a
// call to a method in the orderSensitive set on a non-stdlib receiver, or
// formatted output via fmt.
func orderSensitiveCall(info *types.Info, body *ast.BlockStmt) (token.Pos, string) {
	var pos token.Pos
	var name string
	ast.Inspect(body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		switch {
		case fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Print"):
			pos, name = call.Pos(), "fmt."+fn.Name()
		case fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint"):
			pos, name = call.Pos(), "fmt."+fn.Name()
		case sig != nil && sig.Recv() != nil && orderSensitive[fn.Name()] && !isStdlib(fn.Pkg().Path()):
			pos, name = call.Pos(), fn.Name()
		}
		return true
	})
	return pos, name
}

// isStdlib distinguishes standard-library packages (no module prefix with a
// dot, and not this module) from analyzed code. Fixture packages use bare
// single-element paths, which — like the rpcoib module itself — contain no
// dot in the first path element either, so the test is: stdlib iff the
// package does not belong to the rpcoib module and is not a fixture. The
// loader only ever presents module/fixture code to analyzers, so receivers
// from imported packages are stdlib exactly when they came from export data;
// their paths are things like "sync" or "net/http". We approximate: a path
// is stdlib if its first element matches a known stdlib root. For the small
// method-name set used here the only realistic collisions are container/heap
// style APIs, which don't appear inside map ranges in this codebase.
func isStdlib(path string) bool {
	first := path
	if i := strings.IndexByte(path, '/'); i >= 0 {
		first = path[:i]
	}
	switch first {
	case "bufio", "bytes", "container", "context", "encoding", "errors",
		"fmt", "go", "hash", "io", "log", "math", "net", "os", "path",
		"reflect", "regexp", "runtime", "sort", "strconv", "strings",
		"sync", "syscall", "time", "unicode":
		return true
	}
	return false
}
