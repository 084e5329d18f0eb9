package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file implements the goroutine-escape pass of the fourth tier: which
// code runs in which goroutine contexts, and which abstract objects are
// reachable from more than one goroutine. A context is one spawn site — a
// `go` statement, a func value handed to internal/par (or a *Pool method),
// or a request-handler entry point — plus the distinguished main context.
// Context sets propagate along the module-local call graph (including
// calls through function values tracked by the points-to substrate) to a
// fixpoint.
//
// Two refinements keep the pass quiet where the runtime is actually
// ordered:
//
//   - synchronous parallel regions: a func value run by internal/par (For,
//     Run, ForCtx, …) or a *Pool method joins before the call returns, so
//     the caller's own accesses never overlap the body's. The body context
//     is marked multi-instance (worker count > 1) but the caller does not
//     share it.
//   - spawn-then-Wait: inside one function, accesses positioned after a
//     sync.WaitGroup.Wait call do not race with `go` statements launched
//     before that Wait (the join edge wg-balance already models).
//
// MainCtx is context 0; every declared function is seeded with it, since
// any exported function may be entered from the program's main goroutine.

// MainCtx is the distinguished main-goroutine context ID.
const MainCtx = 0

// SpawnSite is one non-main context.
type SpawnSite struct {
	ID    int
	Pos   token.Pos
	Multi bool   // more than one instance may run concurrently
	Sync  bool   // joined before the spawning call returns (par.* regions)
	Label string // "go@file:line", "par@file:line", "handler file:line"
}

// CtxSet is a set of context IDs.
type CtxSet map[int]bool

func (s CtxSet) clone() CtxSet {
	c := make(CtxSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// IDs returns the members in ascending order.
func (s CtxSet) IDs() []int {
	out := make([]int, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Escape is the solved context assignment.
type Escape struct {
	pt           *PointsTo
	cg           *CallGraph
	sites        []*SpawnSite
	ctxs         map[*Func]CtxSet
	spawnedFuncs map[*Func]bool

	// carried records, per spawn site, the root objects the spawn hands to
	// its bodies: pointees of the spawn call's receiver and arguments, the
	// storage and pointees of every free variable captured by a spawned
	// literal, and a handler's receiver pointees. Together with globals these
	// bound what a context can actually see (SiteSees); reach caches the
	// heap closure per site.
	carried map[int][]*Object
	reach   map[int]map[*Object]bool

	// joinExcl records, per spawning function, spawn-site IDs that are
	// joined at a Wait position: accesses in that function after the
	// position do not share those contexts.
	joinExcl map[*Func][]joinWindow
}

type joinWindow struct {
	waitPos token.Pos
	sites   []int // sites spawned before waitPos in the same function
}

// BuildEscape computes goroutine contexts for every declared function and
// literal known to the points-to substrate.
func BuildEscape(pt *PointsTo, cg *CallGraph) *Escape {
	e := &Escape{
		pt:           pt,
		cg:           cg,
		ctxs:         map[*Func]CtxSet{},
		spawnedFuncs: map[*Func]bool{},
		joinExcl:     map[*Func][]joinWindow{},
		carried:      map[int][]*Object{},
		reach:        map[int]map[*Object]bool{},
	}
	e.sites = append(e.sites, &SpawnSite{ID: MainCtx, Label: "main"})

	var all []*Func
	all = append(all, cg.Funcs()...)
	all = append(all, pt.LitFuncs()...)
	for _, f := range all {
		if _, ok := f.Node.(*ast.FuncDecl); ok {
			e.ctxSet(f)[MainCtx] = true
			if isHandlerShaped(f) {
				s := e.newSite(f.Body.Pos(), true, false, "handler "+f.Name)
				e.ctxSet(f)[s.ID] = true
				// Request parameters are per-request; only the receiver's
				// state is shared across in-flight requests.
				if fd := f.Node.(*ast.FuncDecl); fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
					if v, ok := f.Info.Defs[fd.Recv.List[0].Names[0]].(*types.Var); ok {
						e.addCarried(s.ID, pt.VarPointees(v)...)
					}
				}
			}
		}
	}

	// Discover spawn sites and call edges. Literal-inherits-enclosing
	// edges are filtered after the full scan: whether a literal was handed
	// to a spawner may only be known once every function was visited
	// (`f := func(){…}; go f()`).
	type edge struct{ from, to *Func }
	var edges []edge
	var litEdges []edge
	for _, f := range all {
		ff := f
		e.scanFunc(ff, func(callee *Func, inherit bool) {
			if inherit {
				litEdges = append(litEdges, edge{ff, callee})
			} else {
				edges = append(edges, edge{ff, callee})
			}
		})
	}
	for _, ed := range litEdges {
		if !e.spawnedFuncs[ed.to] {
			edges = append(edges, ed)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, ed := range edges {
			from, to := e.ctxSet(ed.from), e.ctxSet(ed.to)
			for id := range from {
				if !to[id] {
					to[id] = true
					changed = true
				}
			}
		}
	}
	return e
}

func (e *Escape) newSite(pos token.Pos, multi, sync bool, label string) *SpawnSite {
	s := &SpawnSite{ID: len(e.sites), Pos: pos, Multi: multi, Sync: sync, Label: label}
	e.sites = append(e.sites, s)
	return s
}

func (e *Escape) ctxSet(f *Func) CtxSet {
	s, ok := e.ctxs[f]
	if !ok {
		s = CtxSet{}
		e.ctxs[f] = s
	}
	return s
}

// Contexts returns the context set a function's body may run in. Literals
// inherit their enclosing function's contexts unless spawned.
func (e *Escape) Contexts(f *Func) CtxSet { return e.ctxSet(f) }

// Site returns the spawn site with the given ID.
func (e *Escape) Site(id int) *SpawnSite { return e.sites[id] }

// Sites returns every context, main first.
func (e *Escape) Sites() []*SpawnSite { return e.sites }

// scanFunc walks one function body (not descending into literals — they
// are scanned as their own Func), recording spawn sites and call edges via
// the callback; inherit=true marks a literal-inherits-enclosing edge that
// only holds if the literal is never spawned.
func (e *Escape) scanFunc(f *Func, callEdge func(callee *Func, inherit bool)) {
	var loopDepth int
	var walk func(n ast.Node) bool
	// Track wg.Wait positions and the go-sites spawned before them.
	var goSites []struct {
		id  int
		pos token.Pos
	}
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if lf := e.pt.LitFunc(n); lf != nil {
				// A literal not handed to a spawner runs where its
				// enclosing function runs (called synchronously or stored
				// and invoked later from the same contexts we can see).
				callEdge(lf, true)
			}
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			ast.Inspect(loopBody(n), walk)
			loopDepth--
			return false
		case *ast.GoStmt:
			multi := loopDepth > 0
			s := e.newSite(n.Pos(), multi, false, "go@"+e.pt.posLabel(n.Pos()))
			targets := e.callTargets(f, n.Call)
			for _, t := range targets {
				e.ctxSet(t)[s.ID] = true
				e.markSpawned(t)
			}
			e.carryCall(f, n.Call, s.ID, targets)
			goSites = append(goSites, struct {
				id  int
				pos token.Pos
			}{s.ID, n.Pos()})
			// Arguments evaluate in the spawner.
			for _, a := range n.Call.Args {
				ast.Inspect(a, walk)
			}
			return false
		case *ast.CallExpr:
			e.scanCall(f, n, callEdge, &goSites)
			return true
		}
		return true
	}
	ast.Inspect(f.Body, walk)
}

func loopBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n.Body
	case *ast.RangeStmt:
		return n.Body
	}
	return nil
}

// scanCall classifies one call: a parallel-region submission, a WaitGroup
// join, or a plain (possibly indirect) call edge.
func (e *Escape) scanCall(f *Func, call *ast.CallExpr, callEdge func(callee *Func, inherit bool), goSites *[]struct {
	id  int
	pos token.Pos
}) {
	// sync.WaitGroup.Wait: accesses after this position do not race with
	// `go` statements launched before it in this function.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
		if tv, ok := f.Info.Types[sel.X]; ok && isSyncWaitGroup(tv.Type) {
			var ids []int
			for _, g := range *goSites {
				if g.pos < call.Pos() {
					ids = append(ids, g.id)
				}
			}
			if len(ids) > 0 {
				e.joinExcl[f] = append(e.joinExcl[f], joinWindow{waitPos: call.Pos(), sites: ids})
			}
		}
	}

	if e.isParRegion(f.Info, call) {
		// Every func-typed argument runs as a multi-instance, synchronously
		// joined worker body.
		s := e.newSite(call.Pos(), true, true, "par@"+e.pt.posLabel(call.Pos()))
		for _, a := range call.Args {
			if !isFuncTyped(f.Info, a) {
				continue
			}
			for _, t := range e.funcValueTargets(f, a) {
				e.ctxSet(t)[s.ID] = true
				e.markSpawned(t)
			}
		}
		return
	}

	if spawnsHandlers(f.Info, call) {
		s := e.newSite(call.Pos(), true, false, "handler-reg@"+e.pt.posLabel(call.Pos()))
		var targets []*Func
		for _, a := range call.Args {
			if !isFuncTyped(f.Info, a) {
				continue
			}
			for _, t := range e.funcValueTargets(f, a) {
				e.ctxSet(t)[s.ID] = true
				e.markSpawned(t)
				targets = append(targets, t)
			}
		}
		e.carryCall(f, call, s.ID, targets)
		return
	}

	// Plain call edge: module-local direct, or indirect through a tracked
	// function value.
	for _, t := range e.callTargets(f, call) {
		callEdge(t, false)
	}
}

// callTargets resolves the bodies a call may execute: the static callee
// plus any function values the points-to substrate tracked.
func (e *Escape) callTargets(f *Func, call *ast.CallExpr) []*Func {
	seen := map[*Func]bool{}
	var out []*Func
	add := func(t *Func) {
		if t != nil && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		add(e.pt.LitFunc(lit))
		return out
	}
	if obj := CalleeObj(f.Info, call); obj != nil {
		add(e.cg.ByObj(obj))
		return out
	}
	for _, t := range e.pt.FuncPointeesOf(f.Info, call.Fun) {
		add(t)
	}
	return out
}

// funcValueTargets resolves a func-typed argument expression to bodies.
func (e *Escape) funcValueTargets(f *Func, arg ast.Expr) []*Func {
	if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
		if t := e.pt.LitFunc(lit); t != nil {
			return []*Func{t}
		}
		return nil
	}
	return e.pt.FuncPointeesOf(f.Info, arg)
}

// markSpawned tags a Func as handed to a spawner, so the
// literal-inherits-enclosing edge is not added for it.
func (e *Escape) markSpawned(f *Func) { e.spawnedFuncs[f] = true }

// addCarried records objects a spawn site shares with its bodies, root
// normalized.
func (e *Escape) addCarried(id int, objs ...*Object) {
	for _, o := range objs {
		if o == nil {
			continue
		}
		r, _ := o.Root()
		e.carried[id] = append(e.carried[id], r)
	}
}

// carryCall records what a go statement or handler registration hands to the
// spawned bodies: pointees of the call's receiver and arguments (a method
// value's receiver travels with the value), and the captures of every
// spawned literal.
func (e *Escape) carryCall(f *Func, call *ast.CallExpr, id int, targets []*Func) {
	recvPointees := func(x ast.Expr) {
		if _, isPkg := f.Info.Uses[firstIdent(x)].(*types.PkgName); isPkg {
			return
		}
		e.addCarried(id, e.pt.PointeesOf(f.Info, x)...)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvPointees(sel.X)
	}
	for _, a := range call.Args {
		e.addCarried(id, e.pt.PointeesOf(f.Info, a)...)
		if sel, ok := ast.Unparen(a).(*ast.SelectorExpr); ok {
			recvPointees(sel.X)
		}
	}
	for _, t := range targets {
		e.carryFreeVars(id, t)
	}
}

// carryFreeVars records the storage and pointees of every variable a spawned
// literal captures from its environment.
func (e *Escape) carryFreeVars(id int, t *Func) {
	lit, ok := t.Node.(*ast.FuncLit)
	if !ok {
		return
	}
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		use, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := t.Info.Uses[use].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal
		}
		seen[v] = true
		e.addCarried(id, e.pt.VarStorage(v))
		e.addCarried(id, e.pt.VarPointees(v)...)
		return true
	})
}

// SiteSees reports whether code running under site id can reach root's
// storage at all: package globals always, anything for the main context,
// otherwise root must be in the heap closure of what the spawn carried.
// An object invisible to a context cannot race there, whatever the context
// sets of the functions touching it say — functions called both from main
// and from a handler operate on different instances in each.
func (e *Escape) SiteSees(id int, root *Object) bool {
	if id == MainCtx || root.Kind == ObjGlobal {
		return true
	}
	reach, ok := e.reach[id]
	if !ok {
		reach = e.pt.Reachable(e.carried[id])
		e.reach[id] = reach
	}
	return reach[root]
}

// isParRegion reports whether the call submits work to internal/par (the
// For/Run family or a method on a *par.Pool) or to a worker-pool type
// ("Pool"/"WorkerPool" receiver with a func-typed argument).
func (e *Escape) isParRegion(info *types.Info, call *ast.CallExpr) bool {
	obj := CalleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if strings.HasSuffix(obj.Pkg().Path(), "internal/par") {
		for _, a := range call.Args {
			if isFuncTyped(info, a) {
				return true
			}
		}
		return false
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := recvNamed(sig.Recv().Type()); n != nil {
			name := n.Obj().Name()
			if strings.Contains(name, "Pool") {
				for _, a := range call.Args {
					if isFuncTyped(info, a) {
						return true
					}
				}
			}
		}
	}
	return false
}

// spawnsHandlers recognizes the stdlib registration points whose func
// arguments run concurrently per request or per timer: net/http handler
// registration and time.AfterFunc.
func spawnsHandlers(info *types.Info, call *ast.CallExpr) bool {
	obj := CalleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "net/http":
		switch obj.Name() {
		case "Handle", "HandleFunc", "HandlerFunc":
			return true
		}
	case "time":
		return obj.Name() == "AfterFunc"
	}
	return false
}

func isFuncTyped(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Signature)
	return ok
}

func isSyncWaitGroup(t types.Type) bool {
	n := recvNamed(t)
	return n != nil && n.Obj().Name() == "WaitGroup" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync"
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isHandlerShaped reports whether a declared function takes request-scoped
// HTTP parameters: such functions run once per in-flight request.
func isHandlerShaped(f *Func) bool {
	fd, ok := f.Node.(*ast.FuncDecl)
	if !ok || fd.Type.Params == nil {
		return false
	}
	for _, fld := range fd.Type.Params.List {
		for _, name := range fld.Names {
			v, _ := f.Info.Defs[name].(*types.Var)
			if v == nil {
				continue
			}
			t := v.Type()
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "net/http" {
				switch n.Obj().Name() {
				case "Request", "ResponseWriter":
					return true
				}
			}
		}
	}
	return false
}

// AccessContexts returns the contexts an access at pos inside f runs in.
// The spawn-then-Wait refinement is exposed separately via ExcludedSites:
// the joined sites belong to the spawned bodies' context sets, so the
// subtraction applies when intersecting an access against *other*
// accesses, not to f's own set.
func (e *Escape) AccessContexts(f *Func, pos token.Pos) CtxSet {
	return e.ctxSet(f).clone()
}

// ExcludedSites returns the spawn-site IDs an access at pos in f is
// ordered after (joined by an earlier Wait).
func (e *Escape) ExcludedSites(f *Func, pos token.Pos) map[int]bool {
	var out map[int]bool
	for _, jw := range e.joinExcl[f] {
		if pos > jw.waitPos {
			if out == nil {
				out = map[int]bool{}
			}
			for _, id := range jw.sites {
				out[id] = true
			}
		}
	}
	return out
}
