package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file implements the points-to substrate of the fourth analysis tier:
// a flow-insensitive, field-sensitive, context-insensitive Andersen-style
// inclusion analysis over the whole module. Abstract objects are allocation
// sites (composite literals, new, make, append growth), the storage of
// named variables, package-level variables, and function values. Points-to
// sets propagate along copy edges (assignments, parameter/result linking
// through the module-local call graph, including calls through tracked
// function values) and through field load/store constraints, iterated to a
// fixpoint with a worklist.
//
// Soundness boundary (DESIGN.md §9.3): the analysis under-approximates.
// Calls into out-of-module code neither create nor merge points-to sets,
// interface method dispatch is not resolved, and a query on an expression
// the substrate does not track returns the empty set. Checks built on top
// must treat "no objects" as "unknown", never as "provably unaliased".

// ObjKind classifies an abstract object.
type ObjKind int

const (
	// ObjAlloc is a heap allocation site: &T{...}, new(T), make(...), a
	// composite literal in value position, or append growth.
	ObjAlloc ObjKind = iota
	// ObjVar is the storage of a named local variable or parameter.
	ObjVar
	// ObjGlobal is the storage of a package-level variable.
	ObjGlobal
	// ObjFunc is a function value: a declared function or a literal.
	ObjFunc
	// ObjField is the storage of one field path inside a parent object,
	// materialized when a field's address is taken.
	ObjField
)

// Object is one abstract memory object.
type Object struct {
	ID    int
	Kind  ObjKind
	Pos   token.Pos
	Type  types.Type  // allocated/variable type; nil when unknown
	Var   *types.Var  // for ObjVar/ObjGlobal
	Fn    *Func       // for ObjFunc: the function value; otherwise the allocating function (nil for globals)
	Label string      // stable diagnostic label
	Parent *Object    // for ObjField
	Path  string      // for ObjField: field path within Parent
}

// Root returns the non-field object this object lives in, and the field
// path from that root ("" for the root itself).
func (o *Object) Root() (*Object, string) {
	if o.Kind == ObjField {
		return o.Parent, o.Path
	}
	return o, ""
}

func (o *Object) String() string { return o.Label }

// Loc is one abstract location: a field path inside a root object. A path
// of "" denotes the object's own storage; "[]" denotes the elements of a
// slice/array/map/channel object.
type Loc struct {
	Obj  *Object
	Path string
}

func (l Loc) String() string {
	if l.Path == "" {
		return l.Obj.Label
	}
	return l.Obj.Label + "." + l.Path
}

// pnode is one points-to set in the constraint graph.
type pnode struct {
	pts    map[*Object]bool
	delta  []*Object
	succs  []*pnode
	loads  []complexC // dst ⊇ pts of (o, path) for o ∈ pts(this)
	stores []complexC // (o, path) ⊇ pts of src for o ∈ pts(this)
	addrs  []complexC // dst ∋ fieldObject(o, path) for o ∈ pts(this)
	calls  []*callSite
}

type complexC struct {
	path string
	node *pnode // dst for loads/addrs, src for stores
}

// callSite is an indirect call through a tracked function value: once a
// function object flows into the callee node the site's arguments and
// results are linked to that function's parameters and results.
type callSite struct {
	args    []*pnode
	results []*pnode
	spread  bool // last argument was xs... (passes the slice itself)
	linked  map[*Func]bool
}

// Global is one package-level var spec handed to the builder.
type Global struct {
	Info *types.Info
	Spec *ast.ValueSpec
}

// PointsTo is the solved substrate.
type PointsTo struct {
	fset *token.FileSet
	cg   *CallGraph

	objs    []*Object
	varObjs map[*types.Var]*Object
	fldObjs map[fieldObjKey]*Object
	allocs  map[ast.Node]*Object
	fnObjs  map[*Func]*Object

	varNodes  map[*types.Var]*pnode
	fldNodes  map[fieldNodeKey]*pnode
	retNodes  map[*Func][]*pnode
	litFuncs  map[*ast.FuncLit]*Func

	work   []*pnode
	inWork map[*pnode]bool

	heapAdj map[*Object][]*Object // lazy, built by Reachable after Solve

	solved bool
}

type fieldObjKey struct {
	root *Object
	path string
}

type fieldNodeKey struct {
	root *Object
	path string
}

// NewPointsTo returns an unsolved substrate over the call graph's functions.
func NewPointsTo(fset *token.FileSet, cg *CallGraph) *PointsTo {
	return &PointsTo{
		fset:     fset,
		cg:       cg,
		varObjs:  map[*types.Var]*Object{},
		fldObjs:  map[fieldObjKey]*Object{},
		allocs:   map[ast.Node]*Object{},
		fnObjs:   map[*Func]*Object{},
		varNodes: map[*types.Var]*pnode{},
		fldNodes: map[fieldNodeKey]*pnode{},
		retNodes: map[*Func][]*pnode{},
		litFuncs: map[*ast.FuncLit]*Func{},
		inWork:   map[*pnode]bool{},
	}
}

// BuildPointsTo generates constraints for every function in the call graph
// and every package-level variable, solves to a fixpoint, and returns the
// substrate ready for queries.
func BuildPointsTo(fset *token.FileSet, cg *CallGraph, globals []Global) *PointsTo {
	pt := NewPointsTo(fset, cg)
	for _, g := range globals {
		pt.genGlobal(g.Info, g.Spec)
	}
	for _, f := range cg.Funcs() {
		pt.genFunc(f)
	}
	pt.Solve()
	return pt
}

// posLabel renders a stable basename:line anchor for object labels.
func (pt *PointsTo) posLabel(pos token.Pos) string {
	if !pos.IsValid() {
		return "?"
	}
	p := pt.fset.Position(pos)
	base := p.Filename
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return fmt.Sprintf("%s:%d", base, p.Line)
}

func (pt *PointsTo) newObject(kind ObjKind, pos token.Pos, t types.Type, label string) *Object {
	o := &Object{ID: len(pt.objs), Kind: kind, Pos: pos, Type: t, Label: label}
	pt.objs = append(pt.objs, o)
	return o
}

// storageObj returns (creating on first use) the storage object of a named
// variable.
func (pt *PointsTo) storageObj(v *types.Var) *Object {
	if o, ok := pt.varObjs[v]; ok {
		return o
	}
	kind := ObjVar
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		kind = ObjGlobal
	}
	label := "var " + v.Name()
	if kind == ObjGlobal && v.Pkg() != nil {
		label = "var " + v.Pkg().Name() + "." + v.Name()
	} else {
		label = fmt.Sprintf("var %s@%s", v.Name(), pt.posLabel(v.Pos()))
	}
	o := pt.newObject(kind, v.Pos(), v.Type(), label)
	o.Var = v
	pt.varObjs[v] = o
	return o
}

// fieldObject returns the object representing the storage of (root, path),
// canonicalizing chains of field objects to a non-field root.
func (pt *PointsTo) fieldObject(root *Object, path string) *Object {
	if path == "" {
		return root
	}
	if root.Kind == ObjField {
		return pt.fieldObject(root.Parent, root.Path+"."+path)
	}
	k := fieldObjKey{root, path}
	if o, ok := pt.fldObjs[k]; ok {
		return o
	}
	o := pt.newObject(ObjField, root.Pos, nil, root.Label+"."+path)
	o.Parent = root
	o.Path = path
	pt.fldObjs[k] = o
	return o
}

// funcObject returns the function-value object for a module function.
func (pt *PointsTo) funcObject(f *Func) *Object {
	if o, ok := pt.fnObjs[f]; ok {
		return o
	}
	o := pt.newObject(ObjFunc, f.Body.Pos(), nil, "func "+f.Name)
	o.Fn = f
	pt.fnObjs[f] = o
	return o
}

func (pt *PointsTo) newNode() *pnode { return &pnode{pts: map[*Object]bool{}} }

func (pt *PointsTo) varNode(v *types.Var) *pnode {
	n, ok := pt.varNodes[v]
	if !ok {
		n = pt.newNode()
		pt.varNodes[v] = n
	}
	return n
}

// nodeForLoc returns the points-to node holding the VALUE stored at (obj,
// path): the var node for plain variable storage, a field node otherwise.
func (pt *PointsTo) nodeForLoc(obj *Object, path string) *pnode {
	if obj.Kind == ObjField {
		return pt.nodeForLoc(obj.Parent, joinPath(obj.Path, path))
	}
	if path == "" && obj.Var != nil {
		return pt.varNode(obj.Var)
	}
	k := fieldNodeKey{obj, path}
	n, ok := pt.fldNodes[k]
	if !ok {
		n = pt.newNode()
		pt.fldNodes[k] = n
	}
	return n
}

func joinPath(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "." + b
}

func (pt *PointsTo) enqueue(n *pnode) {
	if !pt.inWork[n] {
		pt.inWork[n] = true
		pt.work = append(pt.work, n)
	}
}

func (pt *PointsTo) addObj(n *pnode, o *Object) {
	if n == nil || o == nil || n.pts[o] {
		return
	}
	n.pts[o] = true
	n.delta = append(n.delta, o)
	pt.enqueue(n)
}

// addEdge adds a copy edge a→b (pts(b) ⊇ pts(a)).
func (pt *PointsTo) addEdge(a, b *pnode) {
	if a == nil || b == nil || a == b {
		return
	}
	a.succs = append(a.succs, b)
	for o := range a.pts {
		pt.addObj(b, o)
	}
}

// Solve propagates to a fixpoint.
func (pt *PointsTo) Solve() {
	for len(pt.work) > 0 {
		n := pt.work[len(pt.work)-1]
		pt.work = pt.work[:len(pt.work)-1]
		pt.inWork[n] = false
		delta := n.delta
		n.delta = nil
		for _, o := range delta {
			for _, s := range n.succs {
				pt.addObj(s, o)
			}
			for _, c := range n.loads {
				pt.addEdge(pt.nodeForLoc(o, c.path), c.node)
			}
			for _, c := range n.stores {
				pt.addEdge(c.node, pt.nodeForLoc(o, c.path))
			}
			for _, c := range n.addrs {
				pt.addObj(c.node, pt.fieldObject(o, c.path))
			}
			if o.Kind == ObjFunc && o.Fn != nil {
				for _, cs := range n.calls {
					pt.linkCall(cs, o.Fn)
				}
			}
		}
	}
	pt.solved = true
}

// addLoad arranges dst ⊇ load(base, path); new objects arriving at base
// re-fire the constraint.
func (pt *PointsTo) addLoad(base *pnode, path string, dst *pnode) {
	if base == nil || dst == nil {
		return
	}
	base.loads = append(base.loads, complexC{path, dst})
	for o := range base.pts {
		pt.addEdge(pt.nodeForLoc(o, path), dst)
	}
	pt.enqueue(base)
}

// addStore arranges store(base, path) ⊇ src.
func (pt *PointsTo) addStore(base *pnode, path string, src *pnode) {
	if base == nil || src == nil {
		return
	}
	base.stores = append(base.stores, complexC{path, src})
	for o := range base.pts {
		pt.addEdge(src, pt.nodeForLoc(o, path))
	}
}

// addAddr arranges dst ∋ fieldObject(o, path) for each o ∈ pts(base).
func (pt *PointsTo) addAddr(base *pnode, path string, dst *pnode) {
	if base == nil || dst == nil {
		return
	}
	base.addrs = append(base.addrs, complexC{path, dst})
	for o := range base.pts {
		pt.addObj(dst, pt.fieldObject(o, path))
	}
}

// addCallSite attaches an indirect call to the function-value node.
func (pt *PointsTo) addCallSite(fn *pnode, cs *callSite) {
	if fn == nil {
		return
	}
	fn.calls = append(fn.calls, cs)
	for o := range fn.pts {
		if o.Kind == ObjFunc && o.Fn != nil {
			pt.linkCall(cs, o.Fn)
		}
	}
}

// paramVars returns the declared parameter variables of f in order
// (receiver excluded; indirect calls through function values never carry
// one).
func paramVars(f *Func) []*types.Var {
	var ft *ast.FuncType
	switch n := f.Node.(type) {
	case *ast.FuncDecl:
		ft = n.Type
	case *ast.FuncLit:
		ft = n.Type
	default:
		return nil
	}
	var out []*types.Var
	if ft.Params != nil {
		for _, fld := range ft.Params.List {
			for _, name := range fld.Names {
				v, _ := f.Info.Defs[name].(*types.Var)
				out = append(out, v)
			}
		}
	}
	return out
}

// isVariadic reports whether f's last parameter is ...T.
func isVariadic(f *Func) bool {
	var ft *ast.FuncType
	switch n := f.Node.(type) {
	case *ast.FuncDecl:
		ft = n.Type
	case *ast.FuncLit:
		ft = n.Type
	default:
		return false
	}
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return false
	}
	_, ok := ft.Params.List[len(ft.Params.List)-1].Type.(*ast.Ellipsis)
	return ok
}

// linkParam flows one evaluated argument into one parameter. Value
// aggregates (structs, arrays) are additionally copied into the
// parameter's own storage, so field and element reads through the
// parameter resolve to the caller's objects.
func (pt *PointsTo) linkParam(param *types.Var, arg *pnode) {
	if param == nil || arg == nil {
		return
	}
	pt.addEdge(arg, pt.varNode(param))
	g := &gen{pt: pt}
	switch u := param.Type().Underlying().(type) {
	case *types.Struct:
		g.copyFields(&locref{obj: pt.storageObj(param)}, &locref{base: arg}, u, 2)
	case *types.Array:
		g.writeLoc(&locref{obj: pt.storageObj(param), path: "[]"},
			g.readLoc(&locref{base: arg, path: "[]"}))
	}
}

// linkArgs wires evaluated arguments to a callee's parameters, modeling
// variadic collection: extra arguments are stored into a synthesized slice
// object flowing into the variadic parameter, while a spread call (xs...)
// passes the slice value itself.
func (pt *PointsTo) linkArgs(callee *Func, args []*pnode, spread bool) {
	params := paramVars(callee)
	variadic := isVariadic(callee)
	nfixed := len(params)
	if variadic {
		nfixed--
	}
	var varargs *pnode
	for i, a := range args {
		if a == nil {
			continue
		}
		if i < nfixed {
			pt.linkParam(params[i], a)
			continue
		}
		if !variadic || len(params) == 0 {
			continue
		}
		vp := params[len(params)-1]
		if vp == nil {
			continue
		}
		if spread && i == nfixed {
			pt.addEdge(a, pt.varNode(vp))
			continue
		}
		if varargs == nil {
			o := pt.newObject(ObjAlloc, vp.Pos(), vp.Type(), "variadic "+vp.Name())
			varargs = pt.newNode()
			pt.addObj(varargs, o)
			pt.addEdge(varargs, pt.varNode(vp))
		}
		pt.addStore(varargs, "[]", a)
	}
}

// resultNodes returns (creating on first use) the nodes carrying f's
// results: the var nodes of named results, synthetic nodes otherwise.
func (pt *PointsTo) resultNodes(f *Func) []*pnode {
	if ns, ok := pt.retNodes[f]; ok {
		return ns
	}
	var ft *ast.FuncType
	switch n := f.Node.(type) {
	case *ast.FuncDecl:
		ft = n.Type
	case *ast.FuncLit:
		ft = n.Type
	}
	var ns []*pnode
	if ft != nil && ft.Results != nil {
		for _, fld := range ft.Results.List {
			if len(fld.Names) == 0 {
				ns = append(ns, pt.newNode())
				continue
			}
			for _, name := range fld.Names {
				if v, ok := f.Info.Defs[name].(*types.Var); ok {
					ns = append(ns, pt.varNode(v))
				} else {
					ns = append(ns, pt.newNode())
				}
			}
		}
	}
	pt.retNodes[f] = ns
	return ns
}

// linkCall wires one call site to callee's parameters and results.
func (pt *PointsTo) linkCall(cs *callSite, callee *Func) {
	if cs.linked == nil {
		cs.linked = map[*Func]bool{}
	}
	if cs.linked[callee] {
		return
	}
	cs.linked[callee] = true
	pt.linkArgs(callee, cs.args, cs.spread)
	rets := pt.resultNodes(callee)
	for i, r := range cs.results {
		if r != nil && i < len(rets) {
			pt.addEdge(rets[i], r)
		}
	}
}

// LitFunc returns the synthetic Func for a function literal encountered
// during constraint generation, or nil.
func (pt *PointsTo) LitFunc(lit *ast.FuncLit) *Func { return pt.litFuncs[lit] }

// LitFuncs returns every literal's synthetic Func, in source order.
func (pt *PointsTo) LitFuncs() []*Func {
	var out []*Func
	for _, f := range pt.litFuncs {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Body.Pos() < out[j].Body.Pos() })
	return out
}

// ---------- constraint generation ----------

// gen is the per-function constraint generator state.
type gen struct {
	pt   *PointsTo
	info *types.Info
	fn   *Func // current function (innermost literal or declared func)
}

// genGlobal generates constraints for one package-level var spec.
func (pt *PointsTo) genGlobal(info *types.Info, spec *ast.ValueSpec) {
	g := &gen{pt: pt, info: info}
	// Materialize storage for every declared global so queries on globals
	// never miss.
	var lhs []ast.Expr
	for _, name := range spec.Names {
		if v, ok := info.Defs[name].(*types.Var); ok {
			pt.storageObj(v)
		}
		lhs = append(lhs, name)
	}
	if len(spec.Values) == 0 {
		return
	}
	g.genAssign(lhs, spec.Values, token.Pos(0))
}

// genFunc generates constraints for one declared function body.
func (pt *PointsTo) genFunc(f *Func) {
	g := &gen{pt: pt, info: f.Info, fn: f}
	if fd, ok := f.Node.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		// The receiver is a parameter; its node exists for call linking.
		if v, ok := f.Info.Defs[fd.Recv.List[0].Names[0]].(*types.Var); ok {
			pt.varNode(v)
		}
	}
	g.genBody(f.Body)
}

// genBody walks a function body, descending into nested literals with the
// literal as the new current function.
func (g *gen) genBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			g.pt.registerLit(g.info, n, g.fn)
			return false
		case *ast.AssignStmt:
			g.genAssignStmt(n)
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, s := range gd.Specs {
					if vs, ok := s.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
						var lhs []ast.Expr
						for _, name := range vs.Names {
							lhs = append(lhs, name)
						}
						g.genAssign(lhs, vs.Values, n.Pos())
					}
				}
			}
		case *ast.ReturnStmt:
			g.genReturn(n)
		case *ast.RangeStmt:
			g.genRange(n)
		case *ast.SendStmt:
			g.pt.addStore(g.value(n.Chan), "[]", g.value(n.Value))
		case *ast.CallExpr:
			// Expression-position calls still link args to params.
			g.call(n, nil)
			return false // args already evaluated by call()
		}
		return true
	})
}

// registerLit records a literal as a synthetic Func (for spawn/context
// analysis) and returns it.
func (pt *PointsTo) registerLit(info *types.Info, lit *ast.FuncLit, parentFn *Func) *Func {
	if f, ok := pt.litFuncs[lit]; ok {
		return f
	}
	name := "func@" + pt.posLabel(lit.Pos())
	if parentFn != nil {
		name = parentFn.Name + "." + name
	}
	f := &Func{Info: info, Node: lit, Body: lit.Body, Name: name}
	pt.litFuncs[lit] = f
	// Generate the body exactly once, here: literals reached through any
	// path (statement walk, call argument, go statement) get constraints.
	sub := &gen{pt: pt, info: info, fn: f}
	sub.genBody(lit.Body)
	return f
}

func (g *gen) genAssignStmt(a *ast.AssignStmt) {
	if a.Tok != token.ASSIGN && a.Tok != token.DEFINE {
		return // op-assign (+=, |=, …) moves no pointers
	}
	g.genAssign(a.Lhs, a.Rhs, a.Pos())
}

// genAssign handles lhs... = rhs... including multi-value forms.
func (g *gen) genAssign(lhs, rhs []ast.Expr, pos token.Pos) {
	if len(rhs) == 1 && len(lhs) > 1 {
		// Multi-value: call, map index, type assertion, channel receive.
		switch r := ast.Unparen(rhs[0]).(type) {
		case *ast.CallExpr:
			var results []*pnode
			for range lhs {
				results = append(results, g.pt.newNode())
			}
			g.call(r, results)
			for i, l := range lhs {
				g.assignNode(l, results[i])
			}
		case *ast.IndexExpr: // v, ok := m[k]
			g.assignNode(lhs[0], g.value(r))
		case *ast.TypeAssertExpr: // v, ok := x.(T)
			g.assignNode(lhs[0], g.value(r.X))
		case *ast.UnaryExpr: // v, ok := <-ch
			if r.Op == token.ARROW {
				g.assignNode(lhs[0], g.value(r))
			}
		}
		return
	}
	for i := range lhs {
		if i >= len(rhs) {
			break
		}
		g.assignExpr(lhs[i], rhs[i])
	}
}

// assignExpr generates lhs = rhs for one pair.
func (g *gen) assignExpr(lhs, rhs ast.Expr) {
	rhs = ast.Unparen(rhs)
	// A composite literal assigned by value into struct/array storage
	// initializes the target's fields in place rather than allocating.
	if cl, ok := rhs.(*ast.CompositeLit); ok && isValueComposite(g.info, cl) {
		if lr := g.loc(lhs); lr != nil {
			g.genCompositeInto(cl, lr)
			return
		}
	}
	src := g.value(rhs)
	g.assignNode(lhs, src)
	// Struct assigned by value: pointer-bearing fields copy too.
	if t := exprType(g.info, rhs); t != nil {
		if st, ok := t.Underlying().(*types.Struct); ok {
			if dst, srcLoc := g.loc(lhs), g.loc(rhs); dst != nil && srcLoc != nil {
				g.copyFields(dst, srcLoc, st, 2)
			}
		}
	}
}

// assignNode stores the value node into the location lhs denotes.
func (g *gen) assignNode(lhs ast.Expr, src *pnode) {
	if src == nil {
		return
	}
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		return
	}
	// m[k] = v also retains a pointer-like key in the element path.
	if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		if t := exprType(g.info, ix.X); t != nil {
			if mt, ok := t.Underlying().(*types.Map); ok && pointerLike(mt.Key()) {
				g.pt.addStore(g.value(ix.X), "[]", g.value(ix.Index))
			}
		}
	}
	if lr := g.loc(lhs); lr != nil {
		g.writeLoc(lr, src)
	}
}

// locref is an unresolved lvalue: either a statically known root object or
// a base node whose points-to set supplies the roots.
type locref struct {
	obj  *Object
	base *pnode
	path string
}

// writeLoc stores src into the location.
func (g *gen) writeLoc(lr *locref, src *pnode) {
	if lr.obj != nil {
		g.pt.addEdge(src, g.pt.nodeForLoc(lr.obj, lr.path))
		return
	}
	g.pt.addStore(lr.base, lr.path, src)
}

// readLoc returns a node holding the value stored at the location.
func (g *gen) readLoc(lr *locref) *pnode {
	if lr.obj != nil {
		return g.pt.nodeForLoc(lr.obj, lr.path)
	}
	t := g.pt.newNode()
	g.pt.addLoad(lr.base, lr.path, t)
	return t
}

// addrLoc returns a node pointing at the location's storage.
func (g *gen) addrLoc(lr *locref) *pnode {
	t := g.pt.newNode()
	if lr.obj != nil {
		g.pt.addObj(t, g.pt.fieldObject(lr.obj, lr.path))
		return t
	}
	g.pt.addAddr(lr.base, lr.path, t)
	return t
}

// loc resolves an lvalue expression to a location, or nil when untracked.
func (g *gen) loc(e ast.Expr) *locref {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := g.info.Uses[e].(*types.Var)
		if !ok {
			v, ok = g.info.Defs[e].(*types.Var)
		}
		if !ok || v.IsField() {
			return nil
		}
		return &locref{obj: g.pt.storageObj(v)}
	case *ast.SelectorExpr:
		// Package-qualified global.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := g.info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := g.info.Uses[e.Sel].(*types.Var); ok {
					return &locref{obj: g.pt.storageObj(v)}
				}
				return nil
			}
		}
		sel, ok := g.info.Selections[e]
		if !ok || sel.Kind() != types.FieldVal {
			return nil
		}
		return g.fieldLoc(e.X, sel)
	case *ast.StarExpr:
		return &locref{base: g.value(e.X)}
	case *ast.IndexExpr:
		t := exprType(g.info, e.X)
		if t == nil {
			return nil
		}
		switch t.Underlying().(type) {
		case *types.Slice, *types.Map, *types.Pointer:
			return &locref{base: g.value(e.X), path: "[]"}
		case *types.Array:
			if lr := g.loc(e.X); lr != nil {
				lr.path = joinPath(lr.path, "[]")
				return lr
			}
		}
		return nil
	}
	return nil
}

// fieldLoc resolves x.f (a field selection) walking the selection's
// embedding path, crossing pointer boundaries with loads.
func (g *gen) fieldLoc(x ast.Expr, sel *types.Selection) *locref {
	path := selectionPath(sel)
	if path == "" {
		return nil
	}
	recv := sel.Recv()
	if _, isPtr := recv.Underlying().(*types.Pointer); isPtr {
		return &locref{base: g.value(x), path: path}
	}
	// Value receiver: extend the base lvalue's path; fall back to treating
	// the expression as a pointer-like base (e.g. x returned from a call).
	if lr := g.loc(x); lr != nil {
		lr.path = joinPath(lr.path, path)
		return lr
	}
	return &locref{base: g.value(x), path: path}
}

// selectionPath renders a field selection's full path through embedded
// fields ("stats.ops"). Embedded pointer hops end the renderable path — a
// precise model would need a load per hop; we fall back to the suffix,
// keeping the analysis an under-approximation.
func selectionPath(sel *types.Selection) string {
	t := sel.Recv()
	var parts []string
	for _, idx := range sel.Index() {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || idx >= st.NumFields() {
			return ""
		}
		f := st.Field(idx)
		parts = append(parts, f.Name())
		t = f.Type()
	}
	return strings.Join(parts, ".")
}

// copyFields links the pointer-bearing fields of a struct-by-value copy:
// both copies' fields point at the same objects afterwards.
func (g *gen) copyFields(dst, src *locref, st *types.Struct, depth int) {
	if depth <= 0 {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		dstF := &locref{obj: dst.obj, base: dst.base, path: joinPath(dst.path, f.Name())}
		srcF := &locref{obj: src.obj, base: src.base, path: joinPath(src.path, f.Name())}
		if sub, ok := f.Type().Underlying().(*types.Struct); ok {
			g.copyFields(dstF, srcF, sub, depth-1)
			continue
		}
		if pointerLike(f.Type()) {
			g.writeLoc(dstF, g.readLoc(srcF))
		}
	}
}

// pointerLike reports whether values of t carry references worth tracking.
func pointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
		*types.Signature, *types.Interface:
		return true
	}
	return false
}

// isValueComposite reports whether a composite literal denotes struct or
// array storage (copied by value) rather than a reference (slice/map).
func isValueComposite(info *types.Info, cl *ast.CompositeLit) bool {
	t := exprType(info, cl)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

func exprType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// value evaluates an expression to a node holding its points-to set.
func (g *gen) value(e ast.Expr) *pnode {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := g.info.Uses[e].(*types.Var); ok && !v.IsField() {
			return g.pt.varNode(v)
		}
		if v, ok := g.info.Defs[e].(*types.Var); ok {
			return g.pt.varNode(v)
		}
		if fobj, ok := g.info.Uses[e].(*types.Func); ok {
			if mf := g.pt.cg.ByObj(fobj); mf != nil {
				t := g.pt.newNode()
				g.pt.addObj(t, g.pt.funcObject(mf))
				return t
			}
		}
		return g.pt.newNode()
	case *ast.FuncLit:
		// Inside a package-level initializer g.fn is nil: the literal has no
		// enclosing function, only the file.
		lit := g.pt.registerLit(g.info, e, g.fn)
		t := g.pt.newNode()
		g.pt.addObj(t, g.pt.funcObject(lit))
		return t
	case *ast.UnaryExpr:
		switch e.Op {
		case token.AND: // &x
			if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				return g.allocComposite(cl)
			}
			if lr := g.loc(e.X); lr != nil {
				return g.addrLoc(lr)
			}
			return g.pt.newNode()
		case token.ARROW: // <-ch
			t := g.pt.newNode()
			g.pt.addLoad(g.value(e.X), "[]", t)
			return t
		}
		return g.pt.newNode()
	case *ast.CompositeLit:
		return g.allocComposite(e)
	case *ast.CallExpr:
		res := []*pnode{g.pt.newNode()}
		g.call(e, res)
		return res[0]
	case *ast.SelectorExpr, *ast.IndexExpr:
		if lr := g.loc(e.(ast.Expr)); lr != nil {
			return g.readLoc(lr)
		}
		// Method value or untracked: evaluate the base for its side effects.
		if s, ok := e.(*ast.SelectorExpr); ok {
			if _, isPkg := g.info.Uses[firstIdent(s.X)].(*types.PkgName); !isPkg {
				g.value(s.X)
			}
		}
		return g.pt.newNode()
	case *ast.StarExpr:
		if lr := g.loc(e); lr != nil {
			return g.readLoc(lr)
		}
		return g.pt.newNode()
	case *ast.TypeAssertExpr:
		return g.value(e.X)
	case *ast.SliceExpr:
		return g.value(e.X) // a slice of s shares s's backing objects
	case *ast.BinaryExpr, *ast.BasicLit:
		return g.pt.newNode()
	}
	return g.pt.newNode()
}

func firstIdent(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// allocComposite creates the allocation object for a composite literal and
// initializes its fields/elements.
func (g *gen) allocComposite(cl *ast.CompositeLit) *pnode {
	t := exprType(g.info, cl)
	if o, ok := g.pt.allocs[cl]; ok {
		n := g.pt.newNode()
		g.pt.addObj(n, o)
		return n
	}
	label := "alloc@" + g.pt.posLabel(cl.Pos())
	if t != nil {
		label = shortType(t) + "@" + g.pt.posLabel(cl.Pos())
	}
	o := g.pt.newObject(ObjAlloc, cl.Pos(), t, label)
	o.Fn = g.fn
	g.pt.allocs[cl] = o
	g.genCompositeInto(cl, &locref{obj: o})
	n := g.pt.newNode()
	g.pt.addObj(n, o)
	return n
}

// genCompositeInto initializes the fields/elements of a composite literal
// into the given location.
func (g *gen) genCompositeInto(cl *ast.CompositeLit, dst *locref) {
	t := exprType(g.info, cl)
	var st *types.Struct
	if t != nil {
		st, _ = t.Underlying().(*types.Struct)
	}
	for i, elt := range cl.Elts {
		var path string
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
			if st != nil {
				if id, ok := kv.Key.(*ast.Ident); ok {
					path = id.Name
				}
			} else {
				path = "[]"
				// Pointer-like map keys land in "[]" too (conflated with
				// values).
				if kt := exprType(g.info, kv.Key); kt != nil && pointerLike(kt) {
					fk := &locref{obj: dst.obj, base: dst.base, path: joinPath(dst.path, "[]")}
					g.writeLoc(fk, g.value(kv.Key))
				}
			}
		} else if st != nil {
			if i < st.NumFields() {
				path = st.Field(i).Name()
			}
		} else {
			path = "[]"
		}
		if path == "" {
			continue
		}
		fdst := &locref{obj: dst.obj, base: dst.base, path: joinPath(dst.path, path)}
		if sub, ok := ast.Unparen(val).(*ast.CompositeLit); ok && isValueComposite(g.info, sub) {
			g.genCompositeInto(sub, fdst)
			continue
		}
		g.writeLoc(fdst, g.value(val))
	}
}

func shortType(t types.Type) string {
	s := types.TypeString(t, func(p *types.Package) string { return p.Name() })
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return s
}

// genReturn links return values to the current function's result nodes.
func (g *gen) genReturn(r *ast.ReturnStmt) {
	if g.fn == nil || len(r.Results) == 0 {
		return
	}
	rets := g.pt.resultNodes(g.fn)
	if len(r.Results) == 1 && len(rets) > 1 {
		if call, ok := ast.Unparen(r.Results[0]).(*ast.CallExpr); ok {
			g.call(call, rets)
			return
		}
	}
	for i, res := range r.Results {
		if i < len(rets) {
			g.pt.addEdge(g.value(res), rets[i])
		}
	}
}

// genRange links range variables to the container's elements.
func (g *gen) genRange(r *ast.RangeStmt) {
	t := exprType(g.info, r.X)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		if r.Value != nil {
			g.assignNode(r.Value, g.readLoc(&locref{base: g.value(r.X), path: "[]"}))
		}
	case *types.Map:
		// Keys and values share the element path "[]" (documented
		// conflation: key/value identity is rarely the racy distinction).
		elems := g.readLoc(&locref{base: g.value(r.X), path: "[]"})
		if r.Key != nil {
			g.assignNode(r.Key, elems)
		}
		if r.Value != nil {
			g.assignNode(r.Value, elems)
		}
	case *types.Array:
		if r.Value != nil {
			if lr := g.loc(r.X); lr != nil {
				lr.path = joinPath(lr.path, "[]")
				g.assignNode(r.Value, g.readLoc(lr))
			}
		}
	case *types.Chan:
		if r.Key != nil {
			g.assignNode(r.Key, g.readLoc(&locref{base: g.value(r.X), path: "[]"}))
		}
	}
}

// call evaluates a call expression, linking arguments to parameters of
// every resolvable callee and callee results to the given result nodes
// (may be nil).
func (g *gen) call(call *ast.CallExpr, results []*pnode) {
	fun := ast.Unparen(call.Fun)

	// Conversions: T(x) flows x through.
	if tv, ok := g.info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && len(results) > 0 {
			g.pt.addEdge(g.value(call.Args[0]), results[0])
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := g.info.Uses[id].(*types.Builtin); ok {
			g.genBuiltin(b.Name(), call, results)
			return
		}
	}

	// Evaluate arguments once.
	args := make([]*pnode, len(call.Args))
	for i, a := range call.Args {
		args[i] = g.value(a)
	}

	// Direct module-local callee (function or method).
	if obj := CalleeObj(g.info, call); obj != nil {
		if callee := g.pt.cg.ByObj(obj); callee != nil {
			g.linkDirect(call, callee, args, results)
			return
		}
		// Out-of-module: opaque. sync.Once.Do / method values on tracked
		// function args still run them — link function-typed args as
		// zero-arg invocations so their bodies stay reachable for escape.
		for _, a := range args {
			g.pt.addCallSite(a, &callSite{})
		}
		return
	}

	// Immediately invoked or indirect call through a function value.
	var funNode *pnode
	if lit, ok := fun.(*ast.FuncLit); ok {
		funNode = g.value(lit)
	} else {
		funNode = g.value(fun)
	}
	g.pt.addCallSite(funNode, &callSite{args: args, results: results, spread: call.Ellipsis.IsValid()})
}

// linkDirect wires a statically resolved call.
func (g *gen) linkDirect(call *ast.CallExpr, callee *Func, args []*pnode, results []*pnode) {
	// Method receiver.
	if fd, ok := callee.Node.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List) > 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if len(fd.Recv.List[0].Names) > 0 {
				if rv, ok := callee.Info.Defs[fd.Recv.List[0].Names[0]].(*types.Var); ok {
					g.linkReceiver(sel.X, rv)
				}
			}
		}
	}
	g.pt.linkArgs(callee, args, call.Ellipsis.IsValid())
	rets := g.pt.resultNodes(callee)
	for i, r := range results {
		if r != nil && i < len(rets) {
			g.pt.addEdge(rets[i], r)
		}
	}
}

// linkReceiver flows the receiver argument into the receiver parameter,
// inserting the implicit address-of for pointer-receiver methods called on
// addressable values.
func (g *gen) linkReceiver(recvArg ast.Expr, recvParam *types.Var) {
	recvNode := g.pt.varNode(recvParam)
	_, paramIsPtr := recvParam.Type().Underlying().(*types.Pointer)
	t := exprType(g.info, recvArg)
	_, argIsPtr := t.Underlying().(*types.Pointer)
	switch {
	case paramIsPtr && !argIsPtr:
		// Implicit &x on an addressable value.
		if lr := g.loc(recvArg); lr != nil {
			g.pt.addEdge(g.addrLoc(lr), recvNode)
		}
	case paramIsPtr && argIsPtr:
		g.pt.addEdge(g.value(recvArg), recvNode)
	case !paramIsPtr && argIsPtr:
		// Value receiver from pointer (implicit *p): the receiver copy's
		// fields share the pointed-to object's pointees.
		if st, ok := recvParam.Type().Underlying().(*types.Struct); ok {
			g.copyFields(&locref{obj: g.pt.storageObj(recvParam)},
				&locref{base: g.value(recvArg)}, st, 2)
		}
	default:
		// Value receiver on a value: copy fields from the caller's storage.
		if st, ok := recvParam.Type().Underlying().(*types.Struct); ok {
			if lr := g.loc(recvArg); lr != nil {
				g.copyFields(&locref{obj: g.pt.storageObj(recvParam)}, lr, st, 2)
			}
		}
	}
}

// genBuiltin models the pointer-relevant builtins.
func (g *gen) genBuiltin(name string, call *ast.CallExpr, results []*pnode) {
	switch name {
	case "new":
		if len(results) > 0 && len(call.Args) == 1 {
			t := exprType(g.info, call.Args[0])
			o := g.pt.newObject(ObjAlloc, call.Pos(), t, "new@"+g.pt.posLabel(call.Pos()))
			o.Fn = g.fn
			g.pt.addObj(results[0], o)
		}
	case "make":
		if len(results) > 0 && len(call.Args) >= 1 {
			t := exprType(g.info, call.Args[0])
			o := g.pt.newObject(ObjAlloc, call.Pos(), t, "make@"+g.pt.posLabel(call.Pos()))
			o.Fn = g.fn
			g.pt.addObj(results[0], o)
		}
	case "append":
		if len(call.Args) == 0 {
			return
		}
		base := g.value(call.Args[0])
		var dst *pnode
		if len(results) > 0 && results[0] != nil {
			dst = results[0]
		} else {
			dst = g.pt.newNode()
		}
		g.pt.addEdge(base, dst)
		// Growth may allocate a fresh backing array.
		o := g.pt.newObject(ObjAlloc, call.Pos(), exprType(g.info, call.Args[0]), "append@"+g.pt.posLabel(call.Pos()))
		o.Fn = g.fn
		g.pt.addObj(dst, o)
		for _, a := range call.Args[1:] {
			g.pt.addStore(dst, "[]", g.value(a))
		}
	case "copy":
		if len(call.Args) == 2 {
			t := g.pt.newNode()
			g.pt.addLoad(g.value(call.Args[1]), "[]", t)
			g.pt.addStore(g.value(call.Args[0]), "[]", t)
		}
	case "delete", "len", "cap", "close", "panic", "print", "println", "clear", "min", "max":
		for _, a := range call.Args {
			g.value(a)
		}
	}
}

// ---------- post-solve queries ----------

// PointeesOf returns the objects the (pointer-like) expression may point
// at, sorted by object ID. Call after Solve.
func (pt *PointsTo) PointeesOf(info *types.Info, e ast.Expr) []*Object {
	q := &gen{pt: pt, info: info}
	return sortedObjs(q.queryValue(e))
}

// LocsOf returns the abstract locations the lvalue expression denotes,
// sorted. An empty result means the substrate does not track it.
func (pt *PointsTo) LocsOf(info *types.Info, e ast.Expr) []Loc {
	q := &gen{pt: pt, info: info}
	lr := q.queryLoc(e)
	if lr == nil {
		return nil
	}
	var out []Loc
	if lr.obj != nil {
		root, prefix := lr.obj.Root()
		out = append(out, Loc{root, joinPath(prefix, lr.path)})
	} else {
		for o := range lr.base.pts {
			if o.Kind == ObjFunc {
				continue
			}
			root, prefix := o.Root()
			out = append(out, Loc{root, joinPath(prefix, lr.path)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Obj.ID != out[j].Obj.ID {
			return out[i].Obj.ID < out[j].Obj.ID
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// FuncPointeesOf returns the module functions (declared or literal) the
// expression may evaluate to: the call targets of an indirect call.
func (pt *PointsTo) FuncPointeesOf(info *types.Info, e ast.Expr) []*Func {
	var out []*Func
	for _, o := range pt.PointeesOf(info, e) {
		if o.Kind == ObjFunc && o.Fn != nil {
			out = append(out, o.Fn)
		}
	}
	return out
}

// VarStorage returns the storage object of a named variable if the
// substrate has materialized it, or nil.
func (pt *PointsTo) VarStorage(v *types.Var) *Object { return pt.varObjs[v] }

// VarPointees returns the objects variable v may point to, nil when the
// substrate never tracked v.
func (pt *PointsTo) VarPointees(v *types.Var) []*Object {
	n, ok := pt.varNodes[v]
	if !ok {
		return nil
	}
	out := make([]*Object, 0, len(n.pts))
	for o := range n.pts {
		out = append(out, o)
	}
	return out
}

// Reachable returns the closure of roots over the solved heap graph: an
// object stored at any field or element path inside a reachable object is
// reachable, and a reachable variable-storage object carries everything its
// variable points to. All objects are normalized to their roots.
func (pt *PointsTo) Reachable(roots []*Object) map[*Object]bool {
	if pt.heapAdj == nil {
		pt.heapAdj = map[*Object][]*Object{}
		add := func(from *Object, n *pnode) {
			r, _ := from.Root()
			for o := range n.pts {
				ro, _ := o.Root()
				pt.heapAdj[r] = append(pt.heapAdj[r], ro)
			}
		}
		for k, n := range pt.fldNodes {
			add(k.root, n)
		}
		for v, n := range pt.varNodes {
			if o := pt.varObjs[v]; o != nil {
				add(o, n)
			}
		}
	}
	reach := map[*Object]bool{}
	var stack []*Object
	push := func(o *Object) {
		if o == nil {
			return
		}
		r, _ := o.Root()
		if !reach[r] {
			reach[r] = true
			stack = append(stack, r)
		}
	}
	for _, o := range roots {
		push(o)
	}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range pt.heapAdj[o] {
			push(t)
		}
	}
	return reach
}

// queryValue is the read-only twin of value: it never adds constraints,
// resolving loads against the solved sets.
func (g *gen) queryValue(e ast.Expr) map[*Object]bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		obj := g.info.Uses[e]
		if obj == nil {
			obj = g.info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() {
			if n, ok := g.pt.varNodes[v]; ok {
				return n.pts
			}
			return nil
		}
		if fobj, ok := obj.(*types.Func); ok {
			if mf := g.pt.cg.ByObj(fobj); mf != nil {
				if o, ok := g.pt.fnObjs[mf]; ok {
					return map[*Object]bool{o: true}
				}
			}
		}
		return nil
	case *ast.FuncLit:
		if f, ok := g.pt.litFuncs[e]; ok {
			if o, ok := g.pt.fnObjs[f]; ok {
				return map[*Object]bool{o: true}
			}
		}
		return nil
	case *ast.UnaryExpr:
		switch e.Op {
		case token.AND:
			if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				if o, ok := g.pt.allocs[cl]; ok {
					return map[*Object]bool{o: true}
				}
				return nil
			}
			if lr := g.queryLoc(e.X); lr != nil {
				out := map[*Object]bool{}
				if lr.obj != nil {
					out[g.pt.fieldObject(lr.obj, lr.path)] = true
				} else {
					for o := range lr.base.pts {
						if o.Kind != ObjFunc {
							out[g.pt.fieldObject(o, lr.path)] = true
						}
					}
				}
				return out
			}
			return nil
		case token.ARROW:
			return g.queryLoad(g.queryValue(e.X), "[]")
		}
		return nil
	case *ast.CompositeLit:
		if o, ok := g.pt.allocs[e]; ok {
			return map[*Object]bool{o: true}
		}
		return nil
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		if lr := g.queryLoc(e.(ast.Expr)); lr != nil {
			if lr.obj != nil {
				if n := g.pt.lookupLocNode(lr.obj, lr.path); n != nil {
					return n.pts
				}
				return nil
			}
			out := map[*Object]bool{}
			for o := range lr.base.pts {
				if n := g.pt.lookupLocNode(o, lr.path); n != nil {
					for p := range n.pts {
						out[p] = true
					}
				}
			}
			return out
		}
		return nil
	case *ast.TypeAssertExpr:
		return g.queryValue(e.X)
	case *ast.SliceExpr:
		return g.queryValue(e.X)
	case *ast.CallExpr:
		// Conversions flow through; other calls are not re-queried.
		if tv, ok := g.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return g.queryValue(e.Args[0])
		}
		return nil
	}
	return nil
}

// queryLoad resolves a load of path against a set of base objects.
func (g *gen) queryLoad(base map[*Object]bool, path string) map[*Object]bool {
	out := map[*Object]bool{}
	for o := range base {
		if n := g.pt.lookupLocNode(o, path); n != nil {
			for p := range n.pts {
				out[p] = true
			}
		}
	}
	return out
}

// lookupLocNode is nodeForLoc without creation.
func (pt *PointsTo) lookupLocNode(obj *Object, path string) *pnode {
	if obj.Kind == ObjField {
		return pt.lookupLocNode(obj.Parent, joinPath(obj.Path, path))
	}
	if path == "" && obj.Var != nil {
		return pt.varNodes[obj.Var]
	}
	return pt.fldNodes[fieldNodeKey{obj, path}]
}

// queryLoc is the read-only twin of loc; it wraps solved base sets in a
// synthetic node so locref keeps one shape.
func (g *gen) queryLoc(e ast.Expr) *locref {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := g.info.Uses[e].(*types.Var)
		if !ok {
			v, ok = g.info.Defs[e].(*types.Var)
		}
		if !ok || v.IsField() {
			return nil
		}
		if o, ok := g.pt.varObjs[v]; ok {
			return &locref{obj: o}
		}
		return &locref{obj: g.pt.storageObj(v)}
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := g.info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := g.info.Uses[e.Sel].(*types.Var); ok {
					return &locref{obj: g.pt.storageObj(v)}
				}
				return nil
			}
		}
		sel, ok := g.info.Selections[e]
		if !ok || sel.Kind() != types.FieldVal {
			return nil
		}
		path := selectionPath(sel)
		if path == "" {
			return nil
		}
		if _, isPtr := sel.Recv().Underlying().(*types.Pointer); isPtr {
			return &locref{base: g.queryNodeOf(e.X), path: path}
		}
		if lr := g.queryLoc(e.X); lr != nil {
			lr.path = joinPath(lr.path, path)
			return lr
		}
		return &locref{base: g.queryNodeOf(e.X), path: path}
	case *ast.StarExpr:
		return &locref{base: g.queryNodeOf(e.X)}
	case *ast.IndexExpr:
		t := exprType(g.info, e.X)
		if t == nil {
			return nil
		}
		switch t.Underlying().(type) {
		case *types.Slice, *types.Map, *types.Pointer:
			return &locref{base: g.queryNodeOf(e.X), path: "[]"}
		case *types.Array:
			if lr := g.queryLoc(e.X); lr != nil {
				lr.path = joinPath(lr.path, "[]")
				return lr
			}
		}
		return nil
	}
	return nil
}

// queryNodeOf wraps the solved points-to set of e in a detached node.
func (g *gen) queryNodeOf(e ast.Expr) *pnode {
	return &pnode{pts: g.queryValue(e)}
}

func sortedObjs(set map[*Object]bool) []*Object {
	out := make([]*Object, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
