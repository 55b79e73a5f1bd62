package ssalite

import (
	"go/ast"
	"go/token"
)

// buildCFG populates fn.Entry/Exit/Blocks from fn.Body.
func buildCFG(fn *Func) {
	b := &cfgBuilder{fn: fn, labels: map[string]*labelScope{}}
	fn.Entry = b.newBlock("entry")
	fn.Exit = b.newBlock("exit")
	b.cur = fn.Entry
	b.stmt(fn.Body)
	if b.cur != nil {
		b.edge(b.cur, fn.Exit, EdgeNext) // fall off the end
	}
	for _, g := range b.gotos {
		if ls, ok := b.labels[g.label]; ok && ls.target != nil {
			b.edge(g.from, ls.target, EdgeNext)
		}
	}
}

// loopScope tracks the break/continue targets of the innermost loop or
// switch/select (break only).
type loopScope struct {
	breakTo    *Block
	continueTo *Block // nil for switch/select
	label      string
}

// labelScope resolves a declared label: goto jumps to target; labeled
// break/continue resolve through the loop stack by label name.
type labelScope struct {
	target *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	fn     *Func
	cur    *Block // nil while statically unreachable
	loops  []*loopScope
	labels map[string]*labelScope
	gotos  []pendingGoto

	// pendingLabel names the label attached to the next loop/switch/select
	// statement, so `break L` / `continue L` can find it.
	pendingLabel string
}

func (b *cfgBuilder) newBlock(what string) *Block {
	blk := &Block{Index: len(b.fn.Blocks), what: what}
	b.fn.Blocks = append(b.fn.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block, kind EdgeKind) {
	from.Succs = append(from.Succs, Edge{To: to, Kind: kind})
}

// add appends a node to the current block, starting a fresh block if the
// walk is currently unreachable (dead code keeps a CFG, just no preds).
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
	if isPanicNode(n) {
		b.edge(b.cur, b.fn.Exit, EdgeNext)
		b.cur = nil
	}
}

// isPanicNode reports whether n is (or textually contains, outside nested
// literals) a call to the builtin panic: control unwinds out of the function
// there.
func isPanicNode(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" && id.Obj == nil {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// branch ends the current block with a two-way decision controlled by ctrl.
func (b *cfgBuilder) branch(ctrl ast.Node, onTrue, onFalse *Block) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Ctrl = ctrl
	b.edge(b.cur, onTrue, EdgeTrue)
	b.edge(b.cur, onFalse, EdgeFalse)
	b.cur = nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch n := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range n.List {
			b.stmt(st)
		}

	case *ast.ReturnStmt:
		b.add(n)
		if b.cur != nil {
			b.edge(b.cur, b.fn.Exit, EdgeNext)
			b.cur = nil
		}

	case *ast.BranchStmt:
		switch n.Tok {
		case token.BREAK:
			if t := b.findLoop(n.Label, false); t != nil {
				b.add(n)
				if b.cur != nil {
					b.edge(b.cur, t.breakTo, EdgeNext)
				}
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findLoop(n.Label, true); t != nil {
				b.add(n)
				if b.cur != nil {
					b.edge(b.cur, t.continueTo, EdgeNext)
				}
			}
			b.cur = nil
		case token.GOTO:
			b.add(n)
			if b.cur != nil && n.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: n.Label.Name})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by the switch builder (the clause list is walked there);
			// at this level just stop the block — switchStmt wires the edge.
			b.cur = nil
		}

	case *ast.LabeledStmt:
		target := b.newBlock("label." + n.Label.Name)
		if b.cur != nil {
			b.edge(b.cur, target, EdgeNext)
		}
		b.cur = target
		b.labels[n.Label.Name] = &labelScope{target: target}
		b.pendingLabel = n.Label.Name
		b.stmt(n.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		b.stmt(n.Init)
		b.add(n.Cond)
		then := b.newBlock("if.then")
		after := b.newBlock("if.done")
		onFalse := after
		var els *Block
		if n.Else != nil {
			els = b.newBlock("if.else")
			onFalse = els
		}
		b.branch(n.Cond, then, onFalse)
		b.cur = then
		b.stmt(n.Body)
		if b.cur != nil {
			b.edge(b.cur, after, EdgeNext)
		}
		if els != nil {
			b.cur = els
			b.stmt(n.Else)
			if b.cur != nil {
				b.edge(b.cur, after, EdgeNext)
			}
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		b.stmt(n.Init)
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		after := b.newBlock("for.done")
		post := head
		if n.Post != nil {
			post = b.newBlock("for.post")
		}
		if b.cur != nil {
			b.edge(b.cur, head, EdgeNext)
		}
		b.cur = head
		if n.Cond != nil {
			b.add(n.Cond)
			b.branch(n.Cond, body, after)
		} else {
			b.edge(head, body, EdgeNext) // `for {`: no exit edge from the head
			b.cur = nil
		}
		b.pushLoop(&loopScope{breakTo: after, continueTo: post, label: label})
		b.cur = body
		b.stmt(n.Body)
		if b.cur != nil {
			b.edge(b.cur, post, EdgeNext)
		}
		if n.Post != nil {
			b.cur = post
			b.stmt(n.Post)
			if b.cur != nil {
				b.edge(b.cur, head, EdgeNext)
			}
		}
		b.popLoop()
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(n.X)
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		after := b.newBlock("range.done")
		if b.cur != nil {
			b.edge(b.cur, head, EdgeNext)
		}
		// The range head both decides (another element?) and defines the
		// iteration variables; the statement is the controlling node.
		b.cur = head
		b.branch(n, body, after)
		b.pushLoop(&loopScope{breakTo: after, continueTo: head, label: label})
		b.cur = body
		b.stmt(n.Body)
		if b.cur != nil {
			b.edge(b.cur, head, EdgeNext)
		}
		b.popLoop()
		b.cur = after

	case *ast.SwitchStmt:
		b.switchStmt(n.Init, n.Tag, n.Body)

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(n)

	case *ast.SelectStmt:
		label := b.takeLabel()
		if b.cur == nil {
			b.cur = b.newBlock("unreachable")
		}
		after := b.newBlock("select.done")
		dispatch := b.cur
		b.cur = nil
		b.pushLoop(&loopScope{breakTo: after, label: label})
		for _, cl := range n.Body.List {
			comm := cl.(*ast.CommClause)
			cb := b.newBlock("select.case")
			if dispatch != nil {
				b.edge(dispatch, cb, EdgeNext)
			}
			b.cur = cb
			b.stmt(comm.Comm)
			for _, st := range comm.Body {
				b.stmt(st)
			}
			if b.cur != nil {
				b.edge(b.cur, after, EdgeNext)
			}
		}
		b.popLoop()
		// select{} blocks forever: no clauses, no edge to after.
		b.cur = after

	case *ast.DeferStmt:
		b.fn.Defers = append(b.fn.Defers, n)
		b.add(n)

	default:
		// Assignments, declarations, expression statements, go statements,
		// sends, inc/dec, empty statements: straight-line nodes.
		b.add(s)
	}
}

// typeSwitchStmt builds `switch v := x.(type)`: the dispatch block holds the
// init and the guard assignment (whose subtree excludes the clause bodies),
// then the clause machinery is shared with expression switches.
func (b *cfgBuilder) typeSwitchStmt(n *ast.TypeSwitchStmt) {
	label := b.takeLabel()
	b.stmt(n.Init)
	b.add(n.Assign)
	b.switchClauses(label, n.Body)
}

// switchStmt builds expression switches: the dispatch block holds init/tag,
// every clause is a successor, and a missing default adds a direct
// dispatch→after edge (no case may match).
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt) {
	label := b.takeLabel()
	b.stmt(init)
	if tag != nil {
		b.add(tag)
	}
	b.switchClauses(label, body)
}

// switchClauses wires the clause blocks of a switch whose dispatch block is
// the current block.
func (b *cfgBuilder) switchClauses(label string, body *ast.BlockStmt) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	dispatch := b.cur
	after := b.newBlock("switch.done")
	b.cur = nil
	b.pushLoop(&loopScope{breakTo: after, label: label})
	hasDefault := false
	var caseBodies []*Block
	var clauses []*ast.CaseClause
	for _, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		clauses = append(clauses, cc)
		if cc.List == nil {
			hasDefault = true
		}
		cb := b.newBlock("switch.case")
		caseBodies = append(caseBodies, cb)
		if dispatch != nil {
			b.edge(dispatch, cb, EdgeNext)
		}
	}
	for i, cc := range clauses {
		b.cur = caseBodies[i]
		for _, e := range cc.List {
			b.add(e)
		}
		fellThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				if i+1 < len(caseBodies) && b.cur != nil {
					b.edge(b.cur, caseBodies[i+1], EdgeNext)
					fellThrough = true
				}
				b.cur = nil
				continue
			}
			b.stmt(st)
		}
		if b.cur != nil && !fellThrough {
			b.edge(b.cur, after, EdgeNext)
		}
	}
	if !hasDefault && dispatch != nil {
		b.edge(dispatch, after, EdgeNext)
	}
	b.popLoop()
	b.cur = after
}

func (b *cfgBuilder) pushLoop(ls *loopScope) { b.loops = append(b.loops, ls) }
func (b *cfgBuilder) popLoop()               { b.loops = b.loops[:len(b.loops)-1] }

// takeLabel consumes the label attached to the statement being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findLoop resolves a break/continue target. needContinue skips scopes that
// cannot be continued (switch/select).
func (b *cfgBuilder) findLoop(label *ast.Ident, needContinue bool) *loopScope {
	for i := len(b.loops) - 1; i >= 0; i-- {
		ls := b.loops[i]
		if needContinue && ls.continueTo == nil {
			continue
		}
		if label == nil || ls.label == label.Name {
			return ls
		}
	}
	return nil
}
