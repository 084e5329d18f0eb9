package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"math"
	"sort"
	"strings"

	"graftmatch/internal/analysis/flow"
)

// SharedRace is the shared-race check: an Eraser-style lockset rule over the
// points-to/escape tier. Every read and write of a tracked abstract location
// is collected together with the set of mutexes must-held at that point;
// locations reachable from more than one goroutine context whose accesses
// include a write with an empty intersected lockset against some other
// access are reported as data races.
//
// Lock identity is resolved through the points-to layer, so `s.mu` guarding
// `s.cache` is recognized across methods, closures, and mutex aliases
// (`m := &s.mu`). Several orderings keep the check quiet where the runtime
// is actually sequential: accesses in the allocating function before its
// first spawn site (construction), accesses ordered after a WaitGroup.Wait
// join, synchronously joined par regions against main-context code, and
// per-instance objects allocated inside the multi-instance context itself.
func SharedRace() Check {
	return Check{
		Name:  "shared-race",
		Doc:   "reads and writes of goroutine-shared locations hold a common lock",
		Level: "error",
		Run:   runSharedRace,
	}
}

// raceLoc is a comparable rendering of a flow.Loc, used as a group key.
type raceLoc struct {
	obj  *flow.Object
	path string
}

// raceAccess is one read or write of a tracked location.
type raceAccess struct {
	fn     *flow.Func
	pos    token.Pos
	write  bool
	atomic bool
	locks  map[string]bool // canonical mutex IDs must-held at the access
	text   string          // rendered source expression, for the message
}

// callRec is one direct, synchronous module-local call with the lockset held
// at the call site; the basis of caller-held lock inheritance.
type callRec struct {
	caller, callee *flow.Func
	held           map[string]bool
}

func runSharedRace(prog *Program) []Diagnostic {
	fs := prog.ptInfo()
	groups := map[raceLoc][]*raceAccess{}
	var calls []*callRec
	for _, fn := range fs.valueFuncs() {
		pkg := fs.pkgFor(fn)
		if pkg == nil {
			continue
		}
		collectRaceAccesses(fs, pkg, fn, groups, &calls)
	}
	inherited := inheritCallerLocks(calls)

	keys := make([]raceLoc, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].obj.ID != keys[j].obj.ID {
			return keys[i].obj.ID < keys[j].obj.ID
		}
		return keys[i].path < keys[j].path
	})

	var out []Diagnostic
	for _, k := range keys {
		if d, ok := raceInGroup(prog, fs, k, groups[k], inherited); ok {
			out = append(out, d)
		}
	}
	return out
}

// walkWithLocks drives visit over every CFG node of fn in block order,
// passing the must-held lockset (as canonical mutex IDs plus name-based
// fallbacks) flowing into that node. Deferred statements are visited with
// the lockset at the defer site: their arguments evaluate there, and the
// common `mu.Lock(); defer mu.Unlock(); defer f()` shape runs f before the
// unlock anyway.
func walkWithLocks(fs *flowState, pkg *Package, fn *flow.Func, visit func(node ast.Node, held map[string]bool)) {
	keys, _ := collectLockKeys(pkg, fn.Body)
	idx := map[lockKey]int{}
	canon := map[lockKey]map[string]bool{}
	for i, k := range keys {
		idx[k] = i
	}
	// Map each syntactic key to canonical IDs via its first receiver expr.
	if len(keys) > 0 {
		scanOwn(fn.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			m, ok := lockOp(pkg, call)
			if !ok {
				return
			}
			if _, seen := canon[m.lockKey]; seen {
				return
			}
			sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			canon[m.lockKey] = canonMutexIDs(fs, pkg, sel.X)
		})
	}
	g := fn.CFG(fs.cg)
	var must *flow.Solution
	if len(keys) > 0 {
		p := flow.Problem{
			Bits:  len(keys),
			Entry: flow.NewBitSet(len(keys)),
			Must:  true,
			Transfer: func(b *flow.Block, in flow.BitSet) flow.BitSet {
				out := in.Copy()
				for _, node := range b.Nodes {
					applyLockOps(pkg, fn.Node, node, idx, out)
				}
				return out
			},
		}
		must = p.Solve(g)
	}
	heldIDs := func(facts flow.BitSet) map[string]bool {
		var ids map[string]bool
		for k, i := range idx {
			if !facts.Has(i) || !k.write { // read locks do not order writes
				continue
			}
			for id := range canon[k] {
				if ids == nil {
					ids = map[string]bool{}
				}
				ids[id] = true
			}
		}
		return ids
	}
	for _, b := range g.Reachable() {
		var facts flow.BitSet
		if must != nil {
			facts = must.In[b].Copy()
		}
		for i, node := range b.Nodes {
			// A select comm statement is duplicated as the first node of its
			// case block; the SelectStmt head node is skipped by consumers,
			// so the case copy is the one that counts.
			_ = i
			var held map[string]bool
			if must != nil {
				held = heldIDs(facts)
			}
			visit(node, held)
			if must != nil {
				applyLockOps(pkg, fn.Node, node, idx, facts)
			}
		}
	}
}

// canonMutexIDs resolves a mutex receiver expression to canonical identities:
// the points-to location when it is unambiguous, always joined by a
// name-based fallback ("~mu") so imprecisely resolved receivers with the
// same field name still count as the same lock. The fallback biases toward
// treating accesses as guarded — quiet over noisy.
func canonMutexIDs(fs *flowState, pkg *Package, x ast.Expr) map[string]bool {
	ids := map[string]bool{}
	var loc *flow.Loc
	tv, ok := pkg.Info.Types[x]
	if ok && tv.Type != nil {
		if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
			if objs := fs.pts.PointeesOf(pkg.Info, x); len(objs) == 1 {
				loc = &flow.Loc{Obj: objs[0]}
			}
		} else if locs := fs.pts.LocsOf(pkg.Info, x); len(locs) == 1 {
			loc = &locs[0]
		}
	}
	if loc != nil {
		ids[loc.String()] = true
	}
	k := exprKey(x)
	if i := strings.LastIndex(k, "."); i >= 0 {
		k = k[i+1:]
	}
	if k != "" {
		ids["~"+k] = true
	}
	return ids
}

// raceScanner collects the accesses of one function.
type raceScanner struct {
	fs     *flowState
	pkg    *Package
	fn     *flow.Func
	held   map[string]bool
	groups map[raceLoc][]*raceAccess
	calls  *[]*callRec
	seen   map[raceSeenKey]*raceAccess
}

type raceSeenKey struct {
	loc   raceLoc
	pos   token.Pos
	write bool
}

func collectRaceAccesses(fs *flowState, pkg *Package, fn *flow.Func, groups map[raceLoc][]*raceAccess, calls *[]*callRec) {
	sc := &raceScanner{fs: fs, pkg: pkg, fn: fn, groups: groups, calls: calls, seen: map[raceSeenKey]*raceAccess{}}
	walkWithLocks(fs, pkg, fn, func(node ast.Node, held map[string]bool) {
		sc.held = held
		sc.node(node)
	})
}

// node classifies one CFG node. SelectStmt heads are skipped (their comm
// statements and bodies live in the case blocks); RangeStmt nodes carry only
// the per-iteration key/value bind.
func (sc *raceScanner) node(n ast.Node) {
	switch n := n.(type) {
	case *ast.SelectStmt:
	case *ast.RangeStmt:
		if n.Key != nil {
			sc.expr(n.Key, true, false)
		}
		if n.Value != nil {
			sc.expr(n.Value, true, false)
		}
	case *ast.GoStmt:
		// Arguments evaluate in the spawner; the spawned body is its own
		// Func and the caller's lockset does not transfer.
		for _, a := range n.Call.Args {
			sc.expr(a, false, false)
		}
	case *ast.DeferStmt:
		for _, a := range n.Call.Args {
			sc.expr(a, false, false)
		}
	case ast.Stmt:
		sc.stmt(n)
	case ast.Expr:
		sc.expr(n, false, false)
	}
}

func (sc *raceScanner) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, l := range s.Lhs {
			sc.expr(l, true, false)
		}
		for _, r := range s.Rhs {
			sc.expr(r, false, false)
		}
	case *ast.IncDecStmt:
		sc.expr(s.X, true, false)
	case *ast.SendStmt:
		sc.expr(s.Chan, false, false)
		sc.expr(s.Value, false, false)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			sc.expr(r, false, false)
		}
	case *ast.ExprStmt:
		sc.expr(s.X, false, false)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				sc.expr(v, false, false)
			}
		}
	}
}

// expr records accesses within one expression. write applies to the
// outermost lvalue only; atomic marks accesses inside sync/atomic argument
// lists.
func (sc *raceScanner) expr(e ast.Expr, write, atomic bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		sc.record(e, write, atomic)
	case *ast.SelectorExpr:
		if isPkgQualifier(sc.pkg.Info, e.X) {
			sc.record(e, write, atomic)
			return
		}
		sc.record(e, write, atomic)
		sc.expr(e.X, false, atomic)
	case *ast.IndexExpr:
		sc.record(e, write, atomic)
		sc.expr(e.X, false, atomic)
		sc.expr(e.Index, false, atomic)
	case *ast.StarExpr:
		sc.record(e, write, atomic)
		sc.expr(e.X, false, atomic)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// Taking an address is not an access of the value; under a
			// sync/atomic call it IS the atomic access of the pointee.
			if atomic {
				sc.record(e.X, true, true)
			}
			if sub, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
				sc.expr(sub.X, false, atomic)
			}
			return
		}
		sc.expr(e.X, false, atomic)
	case *ast.BinaryExpr:
		sc.expr(e.X, false, atomic)
		sc.expr(e.Y, false, atomic)
	case *ast.CallExpr:
		sc.call(e, atomic)
	case *ast.CompositeLit:
		isMap := false
		if tv, ok := sc.pkg.Info.Types[e]; ok && tv.Type != nil {
			_, isMap = tv.Type.Underlying().(*types.Map)
		}
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if isMap {
					sc.expr(kv.Key, false, atomic)
				}
				sc.expr(kv.Value, false, atomic)
				continue
			}
			sc.expr(el, false, atomic)
		}
	case *ast.SliceExpr:
		sc.expr(e.X, false, atomic)
		for _, ix := range []ast.Expr{e.Low, e.High, e.Max} {
			if ix != nil {
				sc.expr(ix, false, atomic)
			}
		}
	case *ast.TypeAssertExpr:
		sc.expr(e.X, false, atomic)
	case *ast.KeyValueExpr:
		sc.expr(e.Value, false, atomic)
	case *ast.FuncLit:
		// Analyzed as its own Func.
	}
}

// call handles call expressions: sync/atomic argument marking, sync method
// skipping, caller-lockset call records, and receiver/argument reads.
func (sc *raceScanner) call(call *ast.CallExpr, atomic bool) {
	obj := flow.CalleeObj(sc.pkg.Info, call)
	if obj != nil && obj.Pkg() != nil {
		switch obj.Pkg().Path() {
		case "sync/atomic":
			for _, a := range call.Args {
				sc.expr(a, false, true)
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && !isPkgQualifier(sc.pkg.Info, sel.X) {
				// Method on an atomic.* value: the receiver IS the access,
				// already excluded from tracking by type.
				sc.expr(sel.X, false, true)
			}
			return
		case "sync":
			return // Lock/Unlock/Wait/Do receivers are synchronization, not data
		}
	}
	if obj != nil {
		if callee := sc.fs.cg.ByObj(obj); callee != nil {
			*sc.calls = append(*sc.calls, &callRec{caller: sc.fn, callee: callee, held: cloneIDSet(sc.held)})
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && !isPkgQualifier(sc.pkg.Info, sel.X) {
		sc.expr(sel.X, false, atomic)
	}
	for _, a := range call.Args {
		sc.expr(a, false, atomic)
	}
}

// record enters one access of e's location(s) into the group map.
func (sc *raceScanner) record(e ast.Expr, write, atomic bool) {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name == "_" {
		return
	}
	tv, ok := sc.pkg.Info.Types[e]
	if !ok || tv.Type == nil || untrackedType(tv.Type) {
		return
	}
	for _, loc := range sc.fs.pts.LocsOf(sc.pkg.Info, e) {
		if loc.Obj == nil || loc.Obj.Kind == flow.ObjFunc {
			continue
		}
		k := raceSeenKey{loc: raceLoc{loc.Obj, loc.Path}, pos: e.Pos(), write: write}
		if prev := sc.seen[k]; prev != nil {
			prev.atomic = prev.atomic || atomic
			continue
		}
		a := &raceAccess{
			fn:     sc.fn,
			pos:    e.Pos(),
			write:  write,
			atomic: atomic,
			locks:  cloneIDSet(sc.held),
			text:   types.ExprString(e),
		}
		sc.seen[k] = a
		sc.groups[k.loc] = append(sc.groups[k.loc], a)
	}
}

// untrackedType excludes types whose sharing is owned by other checks or by
// the runtime: synchronization primitives, atomics, contexts, channels, and
// function values.
func untrackedType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Chan, *types.Signature, *types.Tuple:
		return true
	}
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() {
	case "sync", "sync/atomic", "context":
		return true
	}
	return false
}

// isPkgQualifier reports whether e names a package (the X of pkg.Sym).
func isPkgQualifier(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, ok = info.Uses[id].(*types.PkgName)
	return ok
}

func cloneIDSet(s map[string]bool) map[string]bool {
	if len(s) == 0 {
		return nil
	}
	c := make(map[string]bool, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// inheritCallerLocks propagates locks held at every observed call site into
// the callee's accesses: a helper only ever invoked under s.mu is guarded by
// s.mu. Two rounds carry the property one call level deeper.
func inheritCallerLocks(calls []*callRec) map[*flow.Func]map[string]bool {
	inherit := map[*flow.Func]map[string]bool{}
	for round := 0; round < 2; round++ {
		next := map[*flow.Func]map[string]bool{}
		seen := map[*flow.Func]bool{}
		for _, cr := range calls {
			eff := cloneIDSet(cr.held)
			for id := range inherit[cr.caller] {
				if eff == nil {
					eff = map[string]bool{}
				}
				eff[id] = true
			}
			if !seen[cr.callee] {
				seen[cr.callee] = true
				next[cr.callee] = eff
				continue
			}
			cur := next[cr.callee]
			for id := range cur {
				if !eff[id] {
					delete(cur, id)
				}
			}
		}
		inherit = next
	}
	return inherit
}

// effectiveLocks is an access's own lockset plus what every caller holds.
func effectiveLocks(a *raceAccess, inherited map[*flow.Func]map[string]bool) map[string]bool {
	inh := inherited[a.fn]
	if len(inh) == 0 {
		return a.locks
	}
	eff := cloneIDSet(a.locks)
	if eff == nil {
		eff = map[string]bool{}
	}
	for id := range inh {
		eff[id] = true
	}
	return eff
}

func locksIntersect(a, b map[string]bool) bool {
	for id := range a {
		if b[id] {
			return true
		}
	}
	return false
}

// raceInGroup applies the group filters and pairwise concurrency test to one
// location's accesses, returning the first confirmed race.
func raceInGroup(prog *Program, fs *flowState, key raceLoc, accs []*raceAccess, inherited map[*flow.Func]map[string]bool) (Diagnostic, bool) {
	root, _ := key.obj.Root()
	owner := ownerFuncOf(fs, root)

	// Local variables only become interesting once a closure or another
	// function touches them.
	if root.Kind == flow.ObjVar {
		distinct := map[*flow.Func]bool{}
		for _, a := range accs {
			distinct[a.fn] = true
		}
		if len(distinct) < 2 {
			return Diagnostic{}, false
		}
	}
	for _, a := range accs {
		if a.atomic {
			return Diagnostic{}, false // atomic discipline is go test -race's domain
		}
	}

	// Construction window: accesses in the allocating function before its
	// first own spawn site are single-threaded.
	firstSpawn := token.Pos(math.MaxInt)
	if owner != nil {
		firstSpawn = firstSpawnPos(fs, owner)
	}
	live := accs[:0:0]
	for _, a := range accs {
		if owner != nil && a.fn == owner && a.pos < firstSpawn {
			continue
		}
		if isInitFunc(a.fn.Node) {
			continue
		}
		live = append(live, a)
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].pos != live[j].pos {
			return live[i].pos < live[j].pos
		}
		return live[i].write && !live[j].write
	})

	var ownerCtxs flow.CtxSet
	if owner != nil {
		ownerCtxs = fs.escape.Contexts(owner)
	}
	for _, w := range live {
		if !w.write {
			continue
		}
		for _, a := range live {
			desc, ok := concurrentPair(fs, ownerCtxs, root, w, a, inherited)
			if !ok {
				continue
			}
			other := "read"
			if a.write {
				other = "write"
			}
			if a == w {
				return prog.diag(w.pos, "shared-race",
					"write to %s in %s races with itself across instances of %s with no lock held: guard it with a mutex or make it atomic",
					w.text, w.fn.Name, desc), true
			}
			return prog.diag(w.pos, "shared-race",
				"write to %s in %s races with the %s at %s in %s (%s; no common lock held): guard both accesses with one mutex",
				w.text, w.fn.Name, other, prog.shortPos(a.pos), a.fn.Name, desc), true
		}
	}
	return Diagnostic{}, false
}

// concurrentPair decides whether two accesses of the same location can run
// concurrently, returning a human-readable context description.
//
// Two deliberate unsoundnesses keep the rule usable (§9.3 of DESIGN.md):
// fork-join par regions are treated as fully ordered — their workers
// partition writes by index or rank, which no lockset can see, and the pool
// tier carries its own -race tests — and a context only races on an object
// it can actually see (SiteSees), so functions reachable from both main and
// a handler do not conflate the distinct instances each caller operates on.
func concurrentPair(fs *flowState, ownerCtxs flow.CtxSet, root *flow.Object, w, a *raceAccess, inherited map[*flow.Func]map[string]bool) (string, bool) {
	if locksIntersect(effectiveLocks(w, inherited), effectiveLocks(a, inherited)) {
		return "", false
	}
	cw := fs.escape.AccessContexts(w.fn, w.pos)
	ca := fs.escape.AccessContexts(a.fn, a.pos)
	ew := fs.escape.ExcludedSites(w.fn, w.pos)
	ea := fs.escape.ExcludedSites(a.fn, a.pos)
	for _, i := range cw.IDs() {
		if ea[i] {
			continue // a is ordered after the join of w's context
		}
		si := fs.escape.Site(i)
		if si.Sync {
			continue // fork-join region: joined before the caller resumes
		}
		if !fs.escape.SiteSees(i, root) {
			continue
		}
		for _, j := range ca.IDs() {
			if ew[j] {
				continue
			}
			sj := fs.escape.Site(j)
			if i == j {
				// Same context: racy only across multiple instances of an
				// object that outlives one instance.
				if !si.Multi {
					continue
				}
				if ownerCtxs != nil && ownerCtxs[i] {
					continue // allocated per instance: each has its own
				}
				return "multiple instances of " + si.Label, true
			}
			if sj.Sync || !fs.escape.SiteSees(j, root) {
				continue
			}
			if a == w || w.fn == a.fn {
				// Within one function (or one access against itself), two
				// different context IDs describe different calls, not two
				// goroutines racing on the same instance's execution.
				continue
			}
			return "contexts " + si.Label + " and " + sj.Label, true
		}
	}
	return "", false
}

// ownerFuncOf returns the function an object's storage belongs to: the
// allocating function for heap objects, the innermost declaring function for
// locals, nil for globals.
func ownerFuncOf(fs *flowState, root *flow.Object) *flow.Func {
	if root.Fn != nil {
		return root.Fn
	}
	if root.Kind != flow.ObjVar || root.Var == nil {
		return nil
	}
	return enclosingFuncAt(fs, root.Var.Pos())
}

// enclosingFuncAt finds the innermost Func whose node spans pos.
func enclosingFuncAt(fs *flowState, pos token.Pos) *flow.Func {
	var best *flow.Func
	for _, f := range fs.valueFuncs() {
		n := f.Node
		if n == nil || pos < n.Pos() || pos >= n.End() {
			continue
		}
		if best == nil || n.Pos() > best.Node.Pos() {
			best = f
		}
	}
	return best
}

// firstSpawnPos returns the position of the first spawn point in fn's own
// body (go statement, or a call registered as a par/handler spawn site);
// MaxInt when the body spawns nothing, which exempts every access in fn.
func firstSpawnPos(fs *flowState, fn *flow.Func) token.Pos {
	sitePos := map[token.Pos]bool{}
	for _, s := range fs.escape.Sites()[1:] {
		sitePos[s.Pos] = true
	}
	first := token.Pos(math.MaxInt)
	scanOwn(fn.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.GoStmt:
			if n.Pos() < first {
				first = n.Pos()
			}
		case *ast.CallExpr:
			if sitePos[n.Pos()] && n.Pos() < first {
				first = n.Pos()
			}
		}
	})
	return first
}

// isInitFunc reports whether node is a package init function.
func isInitFunc(node ast.Node) bool {
	fd, isDecl := node.(*ast.FuncDecl)
	return isDecl && fd.Recv == nil && fd.Name.Name == "init"
}
