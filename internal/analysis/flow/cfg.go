// Package flow is the dataflow substrate under graftlint's flow-sensitive
// checks: per-function control-flow graphs built from go/ast, a small
// forward dataflow framework (gen/kill facts over CFG blocks with worklist
// iteration), and a module-local call graph keyed by static callee
// resolution. Like the rest of internal/analysis it is stdlib-only.
//
// The CFG is statement-granular: each basic block carries the ast.Node
// statements it executes in order, and checks apply their per-node transfer
// inside a block themselves (the framework converges block-level IN/OUT
// facts; re-walking a block from its IN fact recovers the fact at every
// interior node). Branching constructs are lowered conservatively:
//
//   - if/else, for, range, switch, type switch, and select fan out to the
//     successor blocks that their runtime semantics permit;
//   - break/continue/goto (labeled or not) and fallthrough become edges,
//     resolved against an enclosing-construct stack and a label table;
//   - return edges to the single synthetic Exit block;
//   - a statement-position call to panic, os.Exit, runtime.Goexit,
//     (*testing.common).Fatal* or log.Fatal* terminates its block with an
//     edge to Exit (the statements after it are unreachable).
//
// Range over a function (Go 1.23 iterators) is treated as an ordinary
// range: body executes zero or more times, then control continues.
package flow

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal single-entry straight-line statement
// sequence. Nodes holds the statements (and for condition-bearing
// constructs, the controlling expression's statement node) in execution
// order.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block

	// Kind labels synthetic blocks for debugging and tests.
	Kind string
}

// Pos returns the position of the block's first statement, or token.NoPos
// for synthetic blocks with no statements of their own.
func (b *Block) Pos() token.Pos {
	if len(b.Nodes) == 0 {
		return token.NoPos
	}
	return b.Nodes[0].Pos()
}

// Graph is the CFG of one function body.
type Graph struct {
	Entry  *Block
	Exit   *Block // single synthetic exit; returns and panics edge here
	Blocks []*Block
}

// Reachable reports the blocks reachable from Entry, in index order.
func (g *Graph) Reachable() []*Block {
	seen := make([]bool, len(g.Blocks))
	var stack []*Block
	stack = append(stack, g.Entry)
	seen[g.Entry.Index] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	var out []*Block
	for _, b := range g.Blocks {
		if seen[b.Index] {
			out = append(out, b)
		}
	}
	return out
}

// builder constructs a Graph from a function body.
type builder struct {
	g *Graph

	// breaks/continues are stacks of (label, target) for enclosing
	// breakable/continuable constructs; "" matches an unlabeled branch.
	breaks    []branchTarget
	continues []branchTarget

	// labels maps a label name to the block a goto to it should reach.
	// Forward gotos are resolved in a second pass via pending edges.
	labels  map[string]*Block
	gotos   []pendingGoto
	fallsTo *Block // fallthrough target inside a switch clause

	// pendingLabel carries the label of the innermost enclosing LabeledStmt
	// into the loop/switch/select statement that consumes it.
	pendingLabel string

	// isTerminatingCall classifies a call expression as non-returning
	// (panic and friends). Injected so the builder stays types-free.
	isTerminatingCall func(*ast.CallExpr) bool
}

type branchTarget struct {
	label  string
	target *Block
}

type pendingGoto struct {
	from  *Block
	label string
	pos   token.Pos
}

// BuildCFG constructs the CFG of body. terminating, when non-nil,
// classifies statement-position calls that never return (panic, os.Exit);
// pass nil to treat every call as returning.
func BuildCFG(body *ast.BlockStmt, terminating func(*ast.CallExpr) bool) *Graph {
	if terminating == nil {
		terminating = func(*ast.CallExpr) bool { return false }
	}
	b := &builder{
		g:                 &Graph{},
		labels:            map[string]*Block{},
		isTerminatingCall: terminating,
	}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	last := b.stmtList(b.g.Entry, body.List)
	if last != nil {
		b.edge(last, b.g.Exit) // fall off the end
	}
	for _, pg := range b.gotos {
		if t, ok := b.labels[pg.label]; ok {
			b.edge(pg.from, t)
		} else {
			// Undefined label: the source would not compile; edge to Exit
			// so the graph stays well-formed anyway.
			b.edge(pg.from, b.g.Exit)
		}
	}
	return b.g
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// stmtList lowers stmts starting in cur; returns the live trailing block,
// or nil when control cannot fall off the end of the list.
func (b *builder) stmtList(cur *Block, stmts []ast.Stmt) *Block {
	for _, s := range stmts {
		if cur == nil {
			// Dead code after a terminator still gets blocks (so its
			// statements exist in the graph for position lookups), but no
			// incoming edges — Reachable() excludes them.
			cur = b.newBlock("dead")
		}
		cur = b.stmt(cur, s)
	}
	return cur
}

// stmt lowers one statement; returns the live successor block or nil.
func (b *builder) stmt(cur *Block, s ast.Stmt) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Cond)
		join := b.newBlock("if.join")
		then := b.newBlock("if.then")
		b.edge(cur, then)
		if t := b.stmtList(then, s.Body.List); t != nil {
			b.edge(t, join)
		}
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(cur, els)
			if t := b.stmt(els, s.Else); t != nil {
				b.edge(t, join)
			}
		} else {
			b.edge(cur, join)
		}
		if len(join.Preds) == 0 {
			return nil
		}
		return join

	case *ast.ForStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		post := b.newBlock("for.post")
		exit := b.newBlock("for.exit")
		b.edge(cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			b.edge(head, exit)
		}
		b.edge(head, body)
		label := b.takeLabel(s)
		b.pushLoop(label, exit, post)
		if t := b.stmtList(body, s.Body.List); t != nil {
			b.edge(t, post)
		}
		b.popLoop()
		if s.Post != nil {
			post.Nodes = append(post.Nodes, s.Post)
		}
		b.edge(post, head)
		if s.Cond == nil && len(exit.Preds) == 0 {
			return nil // for {} with no break never exits
		}
		return exit

	case *ast.RangeStmt:
		// The head holds the range clause without its body: the operand,
		// and the per-iteration bind (a receive when ranging a channel).
		// The body's statements live only in the body blocks, so a check
		// inspecting the head never walks them out of order.
		clause := *s
		clause.Body = &ast.BlockStmt{Lbrace: s.Body.Lbrace, Rbrace: s.Body.Lbrace}
		head := b.newBlock("range.head")
		head.Nodes = append(head.Nodes, &clause)
		body := b.newBlock("range.body")
		exit := b.newBlock("range.exit")
		b.edge(cur, head)
		b.edge(head, body)
		b.edge(head, exit)
		label := b.takeLabel(s)
		b.pushLoop(label, exit, head)
		if t := b.stmtList(body, s.Body.List); t != nil {
			b.edge(t, head)
		}
		b.popLoop()
		return exit

	case *ast.SwitchStmt:
		return b.switchStmt(cur, s.Init, s.Tag, s.Body, b.takeLabel(s))

	case *ast.TypeSwitchStmt:
		var tag ast.Expr
		return b.switchStmt(cur, s.Init, tag, s.Body, b.takeLabel(s))

	case *ast.SelectStmt:
		// The select head is the blocking point; checks look for the
		// SelectStmt node itself there.
		cur.Nodes = append(cur.Nodes, s)
		join := b.newBlock("select.join")
		label := b.takeLabel(s)
		b.breaks = append(b.breaks, branchTarget{label, join})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock("select.case")
			b.edge(cur, blk)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			if t := b.stmtList(blk, cc.Body); t != nil {
				b.edge(t, join)
			}
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		if len(s.Body.List) == 0 {
			return nil // select{} blocks forever
		}
		if len(join.Preds) == 0 {
			return nil
		}
		return join

	case *ast.LabeledStmt:
		// Give the label its own block so goto/continue/break can target it;
		// loop/switch statements consume the label via takeLabel.
		lb := b.newBlock("label." + s.Label.Name)
		b.edge(cur, lb)
		b.labels[s.Label.Name] = lb
		b.pendingLabel = s.Label.Name
		out := b.stmt(lb, s.Stmt)
		b.pendingLabel = ""
		return out

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		b.edge(cur, b.g.Exit)
		return nil

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := findTarget(b.breaks, label); t != nil {
				b.edge(cur, t)
			} else {
				b.edge(cur, b.g.Exit)
			}
			return nil
		case token.CONTINUE:
			if t := findTarget(b.continues, label); t != nil {
				b.edge(cur, t)
			} else {
				b.edge(cur, b.g.Exit)
			}
			return nil
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: cur, label: label, pos: s.Pos()})
			return nil
		default: // FALLTHROUGH
			if b.fallsTo != nil {
				b.edge(cur, b.fallsTo)
			}
			return nil
		}

	case *ast.ExprStmt:
		cur.Nodes = append(cur.Nodes, s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.isTerminatingCall(call) {
			b.edge(cur, b.g.Exit)
			return nil
		}
		return cur

	default:
		// Assignments, declarations, go, defer, send, incdec, empty: one
		// node, straight-line control.
		if _, ok := s.(*ast.EmptyStmt); !ok {
			cur.Nodes = append(cur.Nodes, s)
		}
		return cur
	}
}

// switchStmt lowers expression and type switches (tag may be nil).
func (b *builder) switchStmt(cur *Block, init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, label string) *Block {
	if init != nil {
		cur.Nodes = append(cur.Nodes, init)
	}
	if tag != nil {
		cur.Nodes = append(cur.Nodes, tag)
	}
	join := b.newBlock("switch.join")
	b.breaks = append(b.breaks, branchTarget{label, join})

	clauses := body.List
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i := range clauses {
		blocks[i] = b.newBlock("switch.case")
		b.edge(cur, blocks[i])
	}
	savedFall := b.fallsTo
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		if i+1 < len(blocks) {
			b.fallsTo = blocks[i+1]
		} else {
			b.fallsTo = nil
		}
		if t := b.stmtList(blocks[i], cc.Body); t != nil {
			b.edge(t, join)
		}
	}
	b.fallsTo = savedFall
	b.breaks = b.breaks[:len(b.breaks)-1]
	if !hasDefault {
		b.edge(cur, join) // no case matched
	}
	if len(join.Preds) == 0 {
		return nil
	}
	return join
}

func (b *builder) takeLabel(ast.Stmt) string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, branchTarget{label, brk})
	b.continues = append(b.continues, branchTarget{label, cont})
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// findTarget resolves a branch label against a target stack: "" matches the
// innermost entry, a name matches the innermost entry carrying it.
func findTarget(stack []branchTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			if label == "" && stack[i].target == nil {
				continue
			}
			return stack[i].target
		}
	}
	return nil
}
