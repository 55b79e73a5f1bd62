// Package regmem checks that registered memory — pool buffers and
// MemoryBudget reservations — reaches exactly one release on every path and
// is never used afterwards, by CFG dataflow over Pass.SSA.
//
// Registered memory is the scarcest resource in the design: the paper pins
// and registers every pool buffer with the HCA (Design idea 2/3), and the
// million-client work (DESIGN.md S23) rations it through
// ibverbs.MemoryBudget. A Get/Acquire without a matching Put/Release leaks
// registered memory (the ledger invariant Gets==Puts that faultsim.Report
// asserts at runtime), a double Put hands one buffer to two callers, and two
// further bug classes show up in RDMAbox-style transports as corruption or
// slow leaks:
//
//   - the stale reference: a buffer used — read, sent, returned, released
//     again — after its Put/Release. The pool may already have handed the
//     registered region to another stream; writes land in someone else's
//     RPC payload.
//   - the lost reservation: MemoryBudget.TryReserve succeeds, then an early
//     error return skips the Release. The budget never recovers the bytes;
//     under the S23 admission path that is a permanent capacity loss.
//
// The analyzer runs a forward worklist solve over each function's ssalite
// CFG. Buffer obligations (a local bound to the result of a bufpool
// Get/Acquire/Grow) are tracked through held / released / transferred
// states; Grow(b, n) releases b and the assigned result starts a new
// obligation, mirroring ShadowPool.Grow's put-and-reget contract. Budget
// reservations are created branch-sensitively on the success edge of
// `if b.TryReserve(n)` (and the negated form) and keyed by the receiver's
// spelling. It reports:
//
//   - a buffer never released, released on some paths to the exit but not
//     all, overwritten while held, or released twice;
//   - an acquisition, or a TryReserve, whose result is discarded outright:
//     nothing can ever release it;
//   - any use of a buffer after its release (including sending it on a
//     channel, storing it, or returning it) — the stale reference;
//   - any use after the obligation was handed off (channel send, goroutine
//     capture): the receiver owns the buffer now, retaining it races;
//   - a reservation released on some paths but not all — the early-return
//     leak (a reservation held on *every* path is presumed handed to an
//     owner object that releases in Close, as the SRQ constructor does, and
//     stays quiet).
//
// The check is deliberately conservative about escapes: a held buffer that
// is returned, stored into a struct, map, slice, or channel, captured whole
// by a closure, or passed to an unknown callee transfers its release
// obligation elsewhere and stops being tracked. Selector uses (b.Data,
// b.Cap()) and nil comparisons do not escape. Obligations follow calls:
// passing a held buffer to a package-local function consults a computed
// summary of that callee (releases always / sometimes / never / escapes), so
// a release hidden one call down is seen rather than treated as an escape.
// Releases inside defer statements satisfy obligations at every exit.
package regmem

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"rpcoib/internal/lint/analysis"
	"rpcoib/internal/lint/ssalite"
)

// Analyzer is the registered-memory obligation check.
var Analyzer = &analysis.Analyzer{
	Name: "regmem",
	Doc:  "every bufpool acquisition and MemoryBudget reservation must reach exactly one Put/Release on every path and never be used afterwards",
	Run:  run,
}

// st is the dataflow state of one obligation.
type st uint8

const (
	held        st = iota // release still owed on this path
	maybeHeld             // released on some joined paths, not all
	released              // released on all paths so far
	transferred           // handed off (send / goroutine); any use races
)

// okey names one obligation: a buffer local (v) or a budget receiver
// spelling (spell, e.g. "q.budget").
type okey struct {
	v     *types.Var
	spell string
}

// obl is the tracked state plus the positions diagnostics hang on.
type obl struct {
	st     st
	origin token.Pos // acquisition / successful TryReserve
	evPos  token.Pos // release or transfer site
	how    string    // transfer description
}

// fact maps obligations to states. Facts are treated as immutable by the
// solver: every transfer clones before mutating.
type fact map[okey]obl

func (f fact) clone() fact {
	c := make(fact, len(f))
	for k, v := range f {
		c[k] = v
	}
	return c
}

// pSummary is the effect of a callee on one held buffer parameter.
type pSummary uint8

const (
	sumEscapes        pSummary = iota // stored/sent/unknown: stop tracking
	sumKeeps                          // callee never releases it
	sumReleasesAlways                 // released on every callee path
	sumReleasesMaybe                  // released on some callee paths
)

// pkgState carries the cross-function pieces: callee summaries, memoized per
// (function, buffer-param index).
type pkgState struct {
	pass       *analysis.Pass
	summaries  map[*ssalite.Func]map[int]pSummary
	inProgress map[*ssalite.Func]bool
	seen       map[string]bool // finding dedupe: "offset:message"
}

func run(pass *analysis.Pass) (any, error) {
	ps := &pkgState{
		pass:       pass,
		summaries:  map[*ssalite.Func]map[int]pSummary{},
		inProgress: map[*ssalite.Func]bool{},
		seen:       map[string]bool{},
	}
	for _, fn := range pass.SSA.Funcs {
		ps.checkFunc(fn)
	}
	return nil, nil
}

// checkFunc solves the obligation dataflow for fn, then replays the final
// facts in reporting mode (the solve itself is silent: transient pre-fixpoint
// states must not produce diagnostics).
func (ps *pkgState) checkFunc(fn *ssalite.Func) {
	c := &checker{ps: ps, fn: fn, deferRel: ps.deferredReleases(fn)}
	in := fn.Solve(ssalite.Flow{
		Entry:    func() ssalite.Fact { return fact{} },
		Transfer: func(b *ssalite.Block, _ int, n ast.Node, f ssalite.Fact) ssalite.Fact { return c.transfer(f.(fact), n) },
		Branch:   func(b *ssalite.Block, e ssalite.Edge, f ssalite.Fact) ssalite.Fact { return c.branch(b, e, f.(fact)) },
		Join:     join,
	})
	c.report = true
	for _, b := range fn.Blocks {
		f, ok := in[b]
		if !ok {
			continue // unreachable
		}
		ff := f.(fact)
		for _, n := range b.Nodes {
			ff = c.transfer(ff, n)
		}
	}
	if f, ok := in[fn.Exit]; ok {
		c.checkExit(f.(fact))
	}
}

// join unions two facts; disagreement between held and released becomes
// maybeHeld, transfer dominates. Changed-detection compares states only, so
// position bookkeeping cannot prevent convergence.
func join(dst, src ssalite.Fact) (ssalite.Fact, bool) {
	if dst == nil {
		return src, true
	}
	d, s := dst.(fact), src.(fact)
	out := d
	changed := false
	set := func(k okey, o obl) {
		if !changed {
			out = d.clone()
			changed = true
		}
		out[k] = o
	}
	for k, so := range s {
		do, ok := out[k]
		if !ok {
			set(k, so)
			continue
		}
		if do.st == so.st {
			continue
		}
		switch {
		case do.st == transferred:
			// keep
		case so.st == transferred:
			set(k, so)
		case do.st == maybeHeld:
			// keep
		default:
			// held/released disagreement (or released vs maybeHeld).
			do.st = maybeHeld
			set(k, do)
		}
	}
	return out, changed
}

// deferredReleases collects the obligations released by fn's defer
// statements: they satisfy the exit check on every path.
func (ps *pkgState) deferredReleases(fn *ssalite.Func) map[okey]bool {
	rel := map[okey]bool{}
	record := func(call *ast.CallExpr) {
		if ps.isBufRelease(call) {
			for _, a := range call.Args {
				if v := ps.asVar(a); v != nil {
					rel[okey{v: v}] = true
				}
			}
		}
		if name, spell, ok := ps.budgetCall(call); ok && name == "Release" {
			rel[okey{spell: spell}] = true
		}
	}
	for _, d := range fn.Defers {
		record(d.Call)
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					record(call)
				}
				return true
			})
		}
	}
	return rel
}

// checker runs one function's transfer/report machinery.
type checker struct {
	ps       *pkgState
	fn       *ssalite.Func
	deferRel map[okey]bool
	report   bool
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if !c.report {
		return
	}
	d := analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)}
	key := itoa(int(pos)) + ":" + d.Message
	if c.ps.seen[key] {
		return
	}
	c.ps.seen[key] = true
	c.ps.pass.Report(d)
}

// branch creates budget obligations on the success edge of a TryReserve
// condition: `if b.TryReserve(n)` holds on EdgeTrue, `if !b.TryReserve(n)`
// on EdgeFalse (the fallthrough).
func (c *checker) branch(b *ssalite.Block, e ssalite.Edge, f fact) ssalite.Fact {
	cond, ok := b.Ctrl.(ast.Expr)
	if !ok {
		return f
	}
	spell, pos, neg, ok := c.tryReserveCond(cond)
	if !ok {
		return f
	}
	success := e.Kind == ssalite.EdgeTrue
	if neg {
		success = e.Kind == ssalite.EdgeFalse
	}
	if !success {
		return f
	}
	out := f.clone()
	out[okey{spell: spell}] = obl{st: held, origin: pos}
	return out
}

// tryReserveCond matches `recv.TryReserve(n)` or `!recv.TryReserve(n)`.
func (c *checker) tryReserveCond(e ast.Expr) (spell string, pos token.Pos, neg bool, ok bool) {
	e = ast.Unparen(e)
	if u, isNot := e.(*ast.UnaryExpr); isNot && u.Op == token.NOT {
		neg = true
		e = ast.Unparen(u.X)
	}
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", 0, false, false
	}
	name, spell, isBudget := c.ps.budgetCall(call)
	if !isBudget || name != "TryReserve" {
		return "", 0, false, false
	}
	return spell, call.Pos(), neg, true
}

// transfer interprets one CFG node.
func (c *checker) transfer(f fact, n ast.Node) fact {
	if callsPanic(c.ps.pass.TypesInfo, n) {
		// The process is dying; obligations on this path are moot, and an
		// empty fact joins neutrally at Exit.
		return fact{}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		return c.assign(f, n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == len(vs.Names) {
					for i, name := range vs.Names {
						f = c.bind(f, name, vs.Values[i])
					}
				}
			}
		}
		return f
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if name := c.ps.bufAcquireName(call); name != "" {
				c.reportf(call.Pos(), "result of %s discarded: the acquired buffer can never be released", name)
				return f
			}
			if name, spell, ok := c.ps.budgetCall(call); ok && name == "TryReserve" {
				c.reportf(call.Pos(), "result of %s.TryReserve discarded: if it succeeded, the reservation can never be released", spell)
				return f
			}
		}
		return c.scan(f, n.X)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if v := c.ps.asVar(r); v != nil {
				if o, ok := f[okey{v: v}]; ok {
					f = c.useWhole(f, okey{v: v}, o, r.Pos(), "returned")
					continue
				}
			}
			f = c.scan(f, r)
		}
		return f
	case *ast.SendStmt:
		f = c.scan(f, n.Chan)
		if v := c.ps.asVar(n.Value); v != nil {
			k := okey{v: v}
			if o, ok := f[k]; ok {
				switch o.st {
				case held, maybeHeld:
					out := f.clone()
					out[k] = obl{st: transferred, origin: o.origin, evPos: n.Pos(), how: "sent on a channel"}
					return out
				default:
					return c.staleUse(f, k, o, n.Value.Pos())
				}
			}
		}
		return c.scan(f, n.Value)
	case *ast.GoStmt:
		return c.goStmt(f, n)
	case *ast.DeferStmt:
		return f // handled by deferredReleases at the exit check
	case *ast.IncDecStmt:
		return c.scan(f, n.X)
	case ast.Expr:
		if _, _, _, isCond := c.tryReserveCond(n); isCond {
			return f // the Branch hook owns this condition
		}
		return c.scan(f, n)
	}
	return f
}

// assign handles acquisitions, aliasing, and overwrites.
func (c *checker) assign(f fact, n *ast.AssignStmt) fact {
	if len(n.Lhs) != len(n.Rhs) {
		for _, r := range n.Rhs {
			f = c.scan(f, r)
		}
		for _, l := range n.Lhs {
			f = c.scan(f, l)
		}
		return f
	}
	for i := range n.Lhs {
		f = c.bind(f, n.Lhs[i], n.Rhs[i])
	}
	return f
}

// bind processes one lhs = rhs pair.
func (c *checker) bind(f fact, lhs, rhs ast.Expr) fact {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if name := c.ps.bufAcquireName(call); name != "" {
			f = c.applyBufReleases(f, call) // Grow releases its argument
			id, _ := ast.Unparen(lhs).(*ast.Ident)
			if id == nil {
				return c.scan(f, lhs) // stored straight into a field: escapes
			}
			if id.Name == "_" {
				c.reportf(call.Pos(), "result of %s discarded: the acquired buffer can never be released", name)
				return f
			}
			v := c.ps.asVar(id)
			if v == nil {
				return f
			}
			k := okey{v: v}
			if old, ok := f[k]; ok && (old.st == held || old.st == maybeHeld) {
				c.reportf(call.Pos(), "pool buffer %q (acquired at %s) is overwritten before being released", v.Name(), c.pos(old.origin))
			}
			out := f.clone()
			out[k] = obl{st: held, origin: call.Pos()}
			return out
		}
		f = c.call(f, call)
		return c.overwrite(f, lhs)
	}
	// Aliasing: the obligation moves to the new name.
	if rv := c.ps.asVar(rhs); rv != nil {
		if o, ok := f[okey{v: rv}]; ok {
			if lv := c.ps.asVar(lhs); lv != nil {
				out := f.clone()
				delete(out, okey{v: rv})
				out[okey{v: lv}] = o
				return out
			}
			// Stored into a field/element while held: escapes with the store;
			// stored after release: a stale reference now lives in a struct.
			return c.useWhole(f, okey{v: rv}, o, rhs.Pos(), "stored")
		}
	}
	f = c.scan(f, rhs)
	return c.overwrite(f, lhs)
}

// overwrite drops (and reports) a held obligation whose variable is
// reassigned.
func (c *checker) overwrite(f fact, lhs ast.Expr) fact {
	lv := c.ps.asVar(lhs)
	if lv == nil {
		return c.scan(f, lhs)
	}
	k := okey{v: lv}
	if o, ok := f[k]; ok {
		if o.st == held || o.st == maybeHeld {
			c.reportf(lhs.Pos(), "pool buffer %q (acquired at %s) is overwritten before being released", lv.Name(), c.pos(o.origin))
		}
		out := f.clone()
		delete(out, k)
		return out
	}
	return f
}

// goStmt hands captured/passed obligations to the spawned goroutine.
func (c *checker) goStmt(f fact, n *ast.GoStmt) fact {
	// A budget Release inside the spawned closure satisfies the reservation
	// (the goroutine now owns it).
	ast.Inspect(n.Call, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, spell, ok := c.ps.budgetCall(call); ok && name == "Release" {
			k := okey{spell: spell}
			if o, tracked := f[k]; tracked && (o.st == held || o.st == maybeHeld) {
				out := f.clone()
				out[k] = obl{st: released, origin: o.origin, evPos: call.Pos()}
				f = out
			}
		}
		return true
	})
	// Every tracked buffer mentioned anywhere in the go statement transfers.
	ast.Inspect(n.Call, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		v := c.ps.asVar(id)
		if v == nil {
			return true
		}
		k := okey{v: v}
		o, tracked := f[k]
		if !tracked {
			return true
		}
		switch o.st {
		case held, maybeHeld:
			out := f.clone()
			out[k] = obl{st: transferred, origin: o.origin, evPos: n.Pos(), how: "handed to a goroutine"}
			f = out
		default:
			f = c.staleUse(f, k, o, id.Pos())
		}
		return true
	})
	return f
}

// call applies a call's effects: releases, interprocedural summaries for
// held buffers, escapes for unknown callees.
func (c *checker) call(f fact, call *ast.CallExpr) fact {
	if c.ps.bufAcquireName(call) != "" {
		// Result used inside a larger expression: never bound, not tracked.
		return c.applyBufReleases(f, call)
	}
	if c.ps.isBufRelease(call) {
		return c.applyBufReleases(f, call)
	}
	if name, spell, ok := c.ps.budgetCall(call); ok {
		if name != "Release" {
			return f // TryReserve in value context: not tracked
		}
		k := okey{spell: spell}
		o, tracked := f[k]
		if !tracked {
			return f // institutional release of a reservation made elsewhere
		}
		switch o.st {
		case released:
			c.reportf(call.Pos(), "budget reservation on %s (made at %s) is released twice", spell, c.pos(o.origin))
			return f
		default:
			out := f.clone()
			out[k] = obl{st: released, origin: o.origin, evPos: call.Pos()}
			return out
		}
	}

	f = c.scan(f, call.Fun)
	callee := c.ps.localCallee(call)
	for i, a := range call.Args {
		v := c.ps.asVar(a)
		if v == nil {
			f = c.scan(f, a)
			continue
		}
		k := okey{v: v}
		o, tracked := f[k]
		if !tracked {
			continue
		}
		switch o.st {
		case released, transferred:
			f = c.staleUse(f, k, o, a.Pos())
			continue
		}
		// Held (or maybe-held) buffer passed onward: consult the callee.
		sum := sumEscapes
		if callee != nil {
			sum = c.ps.summaryFor(callee)[i]
		}
		out := f.clone()
		switch sum {
		case sumReleasesAlways:
			out[k] = obl{st: released, origin: o.origin, evPos: call.Pos()}
		case sumReleasesMaybe:
			out[k] = obl{st: maybeHeld, origin: o.origin, evPos: call.Pos()}
		case sumKeeps:
			out[k] = o // caller still owes the release
		default:
			delete(out, k) // escapes: obligation transfers into the callee
		}
		f = out
	}
	return f
}

// applyBufReleases marks buffer arguments of a Put/Release/Grow call
// released, reporting double releases and releases after handoff.
func (c *checker) applyBufReleases(f fact, call *ast.CallExpr) fact {
	if !c.ps.isBufRelease(call) {
		return f
	}
	for _, a := range call.Args {
		v := c.ps.asVar(a)
		if v == nil {
			f = c.scan(f, a)
			continue
		}
		k := okey{v: v}
		o, tracked := f[k]
		if !tracked {
			continue
		}
		switch o.st {
		case released:
			c.reportf(call.Pos(), "pool buffer %q (acquired at %s) is released twice", v.Name(), c.pos(o.origin))
		case transferred:
			c.reportf(call.Pos(), "pool buffer %q was %s at %s and is released here too: two owners, one buffer", v.Name(), o.how, c.pos(o.evPos))
		default:
			out := f.clone()
			out[k] = obl{st: released, origin: o.origin, evPos: call.Pos()}
			f = out
		}
	}
	return f
}

// staleUse reports a use of an obligation that no longer exists on this path.
func (c *checker) staleUse(f fact, k okey, o obl, pos token.Pos) fact {
	switch o.st {
	case released:
		c.reportf(pos, "pool buffer %q is used after its release at %s: a stale registered-memory reference (the pool may have re-issued the region)", k.v.Name(), c.pos(o.evPos))
	case maybeHeld:
		c.reportf(pos, "pool buffer %q may already be released (release at %s happens on some paths): a stale registered-memory reference", k.v.Name(), c.pos(o.evPos))
	case transferred:
		c.reportf(pos, "pool buffer %q was %s at %s and must not be retained by the sender", k.v.Name(), o.how, c.pos(o.evPos))
	case held:
		// Whole-value use while held: the obligation escapes (the
		// conservative contract in the package doc).
		out := f.clone()
		delete(out, k)
		return out
	}
	return f
}

// useWhole classifies a whole-value use (return, store) of a tracked buffer.
func (c *checker) useWhole(f fact, k okey, o obl, pos token.Pos, what string) fact {
	switch o.st {
	case held:
		out := f.clone()
		delete(out, k) // ownership moves with the value
		return out
	case maybeHeld:
		c.reportf(pos, "pool buffer %q is %s here but was already released on some path (release at %s)", k.v.Name(), what, c.pos(o.evPos))
	case released:
		c.reportf(pos, "pool buffer %q is %s after its release at %s: a stale registered-memory reference", k.v.Name(), what, c.pos(o.evPos))
	case transferred:
		c.reportf(pos, "pool buffer %q was %s at %s and must not be retained by the sender", k.v.Name(), o.how, c.pos(o.evPos))
	}
	out := f.clone()
	delete(out, k)
	return out
}

// scan walks an expression for uses of tracked buffers. Selector bases and
// nil comparisons of held buffers are fine; the same through a released
// buffer is the stale-reference bug.
func (c *checker) scan(f fact, e ast.Expr) fact {
	if e == nil {
		return f
	}
	switch n := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v := c.ps.asVar(n); v != nil {
			if o, ok := f[okey{v: v}]; ok {
				return c.staleUse(f, okey{v: v}, o, n.Pos())
			}
		}
	case *ast.SelectorExpr:
		if v := c.ps.asVar(n.X); v != nil {
			if o, ok := f[okey{v: v}]; ok {
				if o.st == held {
					return f // b.Data while held: fine
				}
				return c.staleUse(f, okey{v: v}, o, n.X.Pos())
			}
			return f
		}
		return c.scan(f, n.X)
	case *ast.BinaryExpr:
		if n.Op == token.EQL || n.Op == token.NEQ {
			if isNil(c.ps.pass.TypesInfo, n.X) || isNil(c.ps.pass.TypesInfo, n.Y) {
				return f
			}
		}
		f = c.scan(f, n.X)
		return c.scan(f, n.Y)
	case *ast.CallExpr:
		return c.call(f, n)
	case *ast.FuncLit:
		// Whole-closure capture: a release inside satisfies the obligation;
		// any other capture of a held buffer escapes it, and capture of a
		// released one is stale.
		ast.Inspect(n.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				f = c.applyBufReleases(f, call)
			}
			if id, ok := m.(*ast.Ident); ok {
				if v := c.ps.asVar(id); v != nil {
					if o, ok := f[okey{v: v}]; ok && o.st != released {
						f = c.staleUse(f, okey{v: v}, o, id.Pos())
					}
				}
			}
			return true
		})
	case *ast.UnaryExpr:
		return c.scan(f, n.X)
	case *ast.StarExpr:
		return c.scan(f, n.X)
	case *ast.IndexExpr:
		f = c.scan(f, n.X)
		return c.scan(f, n.Index)
	case *ast.SliceExpr:
		for _, x := range []ast.Expr{n.X, n.Low, n.High, n.Max} {
			f = c.scan(f, x)
		}
	case *ast.CompositeLit:
		for _, el := range n.Elts {
			f = c.scan(f, el)
		}
	case *ast.KeyValueExpr:
		return c.scan(f, n.Value)
	case *ast.TypeAssertExpr:
		return c.scan(f, n.X)
	}
	return f
}

// checkExit reports obligations that reach the function exit unsettled.
func (c *checker) checkExit(f fact) {
	keys := make([]okey, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return f[keys[i]].origin < f[keys[j]].origin })
	for _, k := range keys {
		o := f[k]
		if c.deferRel[k] {
			continue // a defer releases it on every path
		}
		switch {
		case k.v != nil && o.st == held:
			c.reportf(o.origin, "pool buffer %q (acquired here) is not released on any path", k.v.Name())
		case k.v != nil && o.st == maybeHeld:
			c.reportf(o.origin, "pool buffer %q (acquired here) is released on some paths but leaks on others", k.v.Name())
		case k.v == nil && o.st == maybeHeld:
			c.reportf(o.origin, "budget reservation on %s is released on some paths but leaks on others: an early return is skipping the Release", k.spell)
			// A reservation held on every path is presumed handed to an owner
			// object that releases in Close (the SRQ-constructor shape).
		}
	}
}

// summaryFor computes (and memoizes) the per-buffer-parameter release
// summary of fn. Recursion (direct or mutual) degrades to escapes.
func (ps *pkgState) summaryFor(fn *ssalite.Func) map[int]pSummary {
	if s, ok := ps.summaries[fn]; ok {
		return s
	}
	if ps.inProgress[fn] {
		return map[int]pSummary{}
	}
	ps.inProgress[fn] = true
	defer delete(ps.inProgress, fn)

	sum := map[int]pSummary{}
	params := ps.bufferParams(fn)
	if len(params) > 0 {
		c := &checker{ps: ps, fn: fn, deferRel: ps.deferredReleases(fn)}
		for idx, v := range params {
			k := okey{v: v}
			in := fn.Solve(ssalite.Flow{
				Entry:    func() ssalite.Fact { return fact{k: obl{st: held, origin: v.Pos()}} },
				Transfer: func(b *ssalite.Block, _ int, n ast.Node, f ssalite.Fact) ssalite.Fact { return c.transfer(f.(fact), n) },
				Branch:   func(b *ssalite.Block, e ssalite.Edge, f ssalite.Fact) ssalite.Fact { return c.branch(b, e, f.(fact)) },
				Join:     join,
			})
			s := sumEscapes
			if exitF, ok := in[fn.Exit]; ok {
				if o, tracked := exitF.(fact)[k]; tracked {
					switch o.st {
					case released:
						s = sumReleasesAlways
					case maybeHeld:
						s = sumReleasesMaybe
					case held:
						s = sumKeeps
					}
				}
			}
			if c.deferRel[k] && s != sumEscapes {
				s = sumReleasesAlways
			}
			sum[idx] = s
		}
	}
	ps.summaries[fn] = sum
	return sum
}

// bufferParams maps flattened parameter index -> *types.Var for fn's
// *bufpool.Buffer parameters.
func (ps *pkgState) bufferParams(fn *ssalite.Func) map[int]*types.Var {
	var ft *ast.FuncType
	switch n := fn.Node.(type) {
	case *ast.FuncDecl:
		ft = n.Type
	case *ast.FuncLit:
		ft = n.Type
	}
	if ft == nil || ft.Params == nil {
		return nil
	}
	out := map[int]*types.Var{}
	idx := 0
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // unnamed parameter still occupies a slot
		}
		for i := 0; i < n; i++ {
			if i < len(field.Names) {
				if v, ok := ps.pass.TypesInfo.Defs[field.Names[i]].(*types.Var); ok && v.Name() != "_" && isBufferPtr(v.Type()) {
					out[idx] = v
				}
			}
			idx++
		}
	}
	return out
}

// ---- recognizers (bufpool- and scale.go-shaped) ----

// bufAcquireName reports the method name if call acquires a pool buffer.
func (ps *pkgState) bufAcquireName(call *ast.CallExpr) string {
	fn := calleeFunc(ps.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || !isBufpoolPkg(fn.Pkg().Path()) {
		return ""
	}
	switch fn.Name() {
	case "Get", "Acquire", "Grow":
	default:
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() != 1 || !isBufferPtr(sig.Results().At(0).Type()) {
		return ""
	}
	return fn.Name()
}

// isBufRelease reports whether call returns a buffer to a pool.
func (ps *pkgState) isBufRelease(call *ast.CallExpr) bool {
	fn := calleeFunc(ps.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || !isBufpoolPkg(fn.Pkg().Path()) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "Put", "Release", "Grow":
		return true
	}
	return false
}

// budgetCall matches TryReserve/Release method calls on an
// ibverbs.MemoryBudget receiver, returning the method name and the
// receiver's spelling (the obligation key).
func (ps *pkgState) budgetCall(call *ast.CallExpr) (name, spell string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, _ := ps.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return "", "", false
	}
	switch fn.Name() {
	case "TryReserve", "Release":
	default:
		return "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := types.Unalias(t).(*types.Named)
	if !isNamed || named.Obj().Name() != "MemoryBudget" || named.Obj().Pkg() == nil || !isIbverbsPkg(named.Obj().Pkg().Path()) {
		return "", "", false
	}
	return fn.Name(), types.ExprString(sel.X), true
}

// localCallee resolves call to a function with a body in this package.
func (ps *pkgState) localCallee(call *ast.CallExpr) *ssalite.Func {
	fn := calleeFunc(ps.pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	return ps.pass.SSA.FuncOf(fn)
}

func (ps *pkgState) asVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := ps.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = ps.pass.TypesInfo.Defs[id]
	}
	v, _ := obj.(*types.Var)
	if v == nil || v.IsField() {
		return nil
	}
	return v
}

func (c *checker) pos(p token.Pos) string {
	pos := c.ps.pass.Fset.Position(p)
	return pos.Filename[strings.LastIndexByte(pos.Filename, '/')+1:] + ":" + itoa(pos.Line)
}

// callsPanic reports whether node n contains a call to the builtin panic
// (outside nested function literals).
func callsPanic(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := info.Uses[id].(*types.Nil)
	return isNilObj
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}

func isBufpoolPkg(path string) bool {
	return path == "bufpool" || strings.HasSuffix(path, "/bufpool")
}

func isIbverbsPkg(path string) bool {
	return path == "ibverbs" || strings.HasSuffix(path, "/ibverbs")
}

func isBufferPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Buffer" && named.Obj().Pkg() != nil && isBufpoolPkg(named.Obj().Pkg().Path())
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
