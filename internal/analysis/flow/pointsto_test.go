package flow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// buildPT typechecks one source file and builds the solved points-to
// substrate plus the escape pass over it.
func buildPT(t *testing.T, src string) (*PointsTo, *Escape, []*Func, *types.Info, *ast.File, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	funcs := CollectFuncs("p", info, []*ast.File{f})
	cg := NewCallGraph(funcs)
	var globals []Global
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, s := range gd.Specs {
			if vs, ok := s.(*ast.ValueSpec); ok {
				globals = append(globals, Global{Info: info, Spec: vs})
			}
		}
	}
	pt := BuildPointsTo(fset, cg, globals)
	esc := BuildEscape(pt, cg)
	return pt, esc, funcs, info, f, fset
}

// exprAt finds the first expression in fn whose source text equals want.
func exprIn(t *testing.T, fset *token.FileSet, file *ast.File, src, funcName, want string) (ast.Expr, *ast.FuncDecl) {
	t.Helper()
	var fd *ast.FuncDecl
	for _, d := range file.Decls {
		if d, ok := d.(*ast.FuncDecl); ok && d.Name.Name == funcName {
			fd = d
		}
	}
	if fd == nil {
		t.Fatalf("func %s not found", funcName)
	}
	var found ast.Expr
	ast.Inspect(fd, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		start := fset.Position(e.Pos()).Offset
		end := fset.Position(e.End()).Offset
		if start >= 0 && end <= len(src) && src[start:end] == want {
			found = e
			return false
		}
		return true
	})
	if found == nil {
		t.Fatalf("expression %q not found in %s", want, funcName)
	}
	return found, fd
}

const aliasSrc = `package p

type Server struct {
	mu    int
	cache map[string]int
	peer  *Server
}

func NewServer() *Server {
	s := &Server{cache: make(map[string]int)}
	return s
}

func (s *Server) Cache() map[string]int { return s.cache }

func use() map[string]int {
	srv := NewServer()
	alias := srv
	return alias.Cache()
}
`

func TestPointsToAliasThroughCallsAndReceivers(t *testing.T) {
	pt, _, _, info, file, fset := buildPT(t, aliasSrc)
	srvExpr, _ := exprIn(t, fset, file, aliasSrc, "use", "srv")
	aliasExpr, _ := exprIn(t, fset, file, aliasSrc, "use", "alias")
	a := pt.PointeesOf(info, srvExpr)
	b := pt.PointeesOf(info, aliasExpr)
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatalf("srv and alias should share one allocation object: %v vs %v", a, b)
	}
	if a[0].Kind != ObjAlloc || !strings.Contains(a[0].Label, "Server") {
		t.Fatalf("unexpected object: kind=%v label=%q", a[0].Kind, a[0].Label)
	}

	// Field sensitivity: srv.cache and srv.mu are distinct locations on the
	// same root.
	cacheExpr, _ := exprIn(t, fset, file, aliasSrc, "use", "alias.Cache()")
	_ = cacheExpr
	muLoc := pt.LocsOf(info, mustSel(t, file, fset, aliasSrc, "Cache", "s.cache"))
	if len(muLoc) != 1 || muLoc[0].Path != "cache" || muLoc[0].Obj != a[0] {
		t.Fatalf("s.cache should resolve to (allocObj, cache): %v", muLoc)
	}
}

func mustSel(t *testing.T, file *ast.File, fset *token.FileSet, src, funcName, want string) ast.Expr {
	t.Helper()
	e, _ := exprIn(t, fset, file, src, funcName, want)
	return e
}

func TestPointsToFieldSensitivity(t *testing.T) {
	src := `package p
type T struct{ a, b *int }
func f() (*int, *int) {
	x := new(int)
	y := new(int)
	t := &T{a: x}
	t.b = y
	return t.a, t.b
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	aExpr := mustSel(t, file, fset, src, "f", "t.a")
	bExpr := mustSel(t, file, fset, src, "f", "t.b")
	ap := pt.PointeesOf(info, aExpr)
	bp := pt.PointeesOf(info, bExpr)
	if len(ap) != 1 || len(bp) != 1 {
		t.Fatalf("each field should hold exactly one object: a=%v b=%v", ap, bp)
	}
	if ap[0] == bp[0] {
		t.Fatal("fields a and b must not be conflated (field sensitivity)")
	}
}

func TestPointsToCycleConvergence(t *testing.T) {
	// Mutually recursive flow plus a pointer cycle through a field must
	// converge and produce the correct sets.
	src := `package p
type N struct{ next *N }
func ring() *N {
	a := &N{}
	b := &N{}
	a.next = b
	b.next = a
	return walk(a, 10)
}
func walk(n *N, k int) *N {
	if k == 0 {
		return n
	}
	return walk(n.next, k-1)
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	nExpr := mustSel(t, file, fset, src, "walk", "n")
	objs := pt.PointeesOf(info, nExpr)
	if len(objs) != 2 {
		t.Fatalf("walk's n should reach both ring allocations, got %v", objs)
	}
}

func TestPointsToGlobalsAndChannels(t *testing.T) {
	src := `package p
var registry = map[string]*T{}
type T struct{ v int }
func pub(ch chan *T) {
	t := &T{}
	ch <- t
	registry["x"] = t
}
func sub(ch chan *T) *T {
	return <-ch
}
func g() *T {
	return registry["x"]
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	recvd := pt.PointeesOf(info, mustSel(t, file, fset, src, "sub", "<-ch"))
	// The send and the receive see the same channel only when the channel
	// values alias; here both come through parameters with no common
	// caller, so pub's object reaches sub only via the global.
	got := pt.PointeesOf(info, mustSel(t, file, fset, src, "g", `registry["x"]`))
	if len(got) != 1 || !strings.Contains(got[0].Label, "T@") {
		t.Fatalf("registry element should hold pub's allocation, got %v", got)
	}
	_ = recvd

	// With a shared channel the object flows sender → receiver.
	src2 := `package p
type T struct{ v int }
func roundtrip() *T {
	ch := make(chan *T, 1)
	go func() { ch <- &T{} }()
	return <-ch
}`
	pt2, _, _, info2, file2, fset2 := buildPT(t, src2)
	out := pt2.PointeesOf(info2, mustSel(t, file2, fset2, src2, "roundtrip", "<-ch"))
	if len(out) != 1 || out[0].Kind != ObjAlloc {
		t.Fatalf("object sent on channel should reach the receive: %v", out)
	}
}

func TestPointsToFuncValuesAndIndirectCalls(t *testing.T) {
	src := `package p
type T struct{ v int }
func mk() *T { return &T{} }
func apply(f func() *T) *T { return f() }
func use() *T {
	g := mk
	r := apply(g)
	return r
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	out := pt.PointeesOf(info, mustSel(t, file, fset, src, "use", "r"))
	if len(out) != 1 || out[0].Kind != ObjAlloc {
		t.Fatalf("indirect call through func value should link results: %v", out)
	}
	fns := pt.FuncPointeesOf(info, mustSel(t, file, fset, src, "use", "g"))
	if len(fns) != 1 || !strings.HasSuffix(fns[0].Name, ".mk") {
		t.Fatalf("g should point at mk, got %v", fns)
	}
}

func TestPointsToStructCopySharesPointees(t *testing.T) {
	src := `package p
type S struct{ buf []int }
func f() ([]int, []int) {
	a := S{buf: make([]int, 4)}
	b := a
	return a.buf, b.buf
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	ab := pt.PointeesOf(info, mustSel(t, file, fset, src, "f", "a.buf"))
	bb := pt.PointeesOf(info, mustSel(t, file, fset, src, "f", "b.buf"))
	if len(ab) != 1 || len(bb) != 1 || ab[0] != bb[0] {
		t.Fatalf("struct copy should share slice backing: a=%v b=%v", ab, bb)
	}
}

func TestPointsToAppendAndSliceElements(t *testing.T) {
	src := `package p
type T struct{ v int }
func f() *T {
	var xs []*T
	xs = append(xs, &T{})
	return xs[0]
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	out := pt.PointeesOf(info, mustSel(t, file, fset, src, "f", "xs[0]"))
	if len(out) != 1 || out[0].Kind != ObjAlloc {
		t.Fatalf("appended element should be readable by index: %v", out)
	}
}

func TestPointsToAddressOfField(t *testing.T) {
	src := `package p
type S struct{ mu, other int }
func f() (*int, *int) {
	s := &S{}
	p := &s.mu
	q := &s.other
	return p, q
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	p := pt.PointeesOf(info, mustSel(t, file, fset, src, "f", "p"))
	q := pt.PointeesOf(info, mustSel(t, file, fset, src, "f", "q"))
	if len(p) != 1 || len(q) != 1 {
		t.Fatalf("field addresses should resolve: p=%v q=%v", p, q)
	}
	if p[0] == q[0] {
		t.Fatal("&s.mu and &s.other must be distinct field objects")
	}
	root, path := p[0].Root()
	if path != "mu" || root.Kind != ObjAlloc {
		t.Fatalf("&s.mu should canonicalize to (alloc, mu), got (%v, %q)", root, path)
	}
}

func TestEscapeGoStatement(t *testing.T) {
	src := `package p
func spawnNamed() {
	go worker()
	local()
}
func worker() {}
func local() {}`
	_, esc, funcs, _, _, _ := buildPT(t, src)
	w := fn(t, funcs, "worker")
	l := fn(t, funcs, "local")
	wc := esc.Contexts(w)
	if len(wc) < 2 {
		t.Fatalf("worker should run in main (it is exported to the module) plus the go context: %v", wc.IDs())
	}
	if !sharedCtxs(esc, wc) {
		t.Fatal("worker's contexts should count as shared")
	}
	lc := esc.Contexts(l)
	if len(lc) != 1 || !lc[MainCtx] {
		t.Fatalf("local should run only in main, got %v", lc.IDs())
	}
}

func TestEscapeGoInLoopIsMulti(t *testing.T) {
	src := `package p
func f(n int) {
	for i := 0; i < n; i++ {
		go body()
	}
}
func body() {}`
	_, esc, funcs, _, _, _ := buildPT(t, src)
	b := fn(t, funcs, "body")
	multi := false
	for id := range esc.Contexts(b) {
		if id != MainCtx && esc.Site(id).Multi {
			multi = true
		}
	}
	if !multi {
		t.Fatal("go inside a loop must be a multi-instance context")
	}
}

func TestEscapeLiteralViaFuncValue(t *testing.T) {
	src := `package p
var sink int
func f() {
	body := func() { sink++ }
	go body()
}`
	pt, esc, _, _, _, _ := buildPT(t, src)
	lits := pt.LitFuncs()
	if len(lits) != 1 {
		t.Fatalf("expected 1 literal, got %d", len(lits))
	}
	ctxs := esc.Contexts(lits[0])
	hasSpawn := false
	for id := range ctxs {
		if id != MainCtx {
			hasSpawn = true
		}
	}
	if !hasSpawn {
		t.Fatalf("literal spawned through a func value should carry the go context: %v", ctxs.IDs())
	}
	if ctxs[MainCtx] {
		t.Fatalf("spawned-only literal should not inherit main: %v", ctxs.IDs())
	}
}

func TestEscapeTransitiveCallee(t *testing.T) {
	src := `package p
func f() { go top() }
func top() { helper() }
func helper() {}`
	_, esc, funcs, _, _, _ := buildPT(t, src)
	h := fn(t, funcs, "helper")
	spawned := false
	for id := range esc.Contexts(h) {
		if id != MainCtx {
			spawned = true
		}
	}
	if !spawned {
		t.Fatal("helper called from a spawned body should inherit the spawn context")
	}
}

func TestEscapeWaitJoinWindow(t *testing.T) {
	src := `package p
import "sync"
func f() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done() }()
	wg.Wait()
	after()
}
func after() {}`
	pt, esc, funcs, _, file, fset := buildPT(t, src)
	_ = pt
	ff := fn(t, funcs, "f")
	// The after() call is positioned after wg.Wait: the go site is excluded.
	var afterPos token.Pos
	ast.Inspect(file, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "after" {
				afterPos = c.Pos()
			}
		}
		return true
	})
	_ = fset
	excl := esc.ExcludedSites(ff, afterPos)
	if len(excl) != 1 {
		t.Fatalf("access after wg.Wait should exclude the pre-Wait go site, got %v", excl)
	}
	before := esc.ExcludedSites(ff, ff.Body.Pos())
	if len(before) != 0 {
		t.Fatalf("access before the Wait should exclude nothing, got %v", before)
	}
}

func TestEscapeHandlerShaped(t *testing.T) {
	src := `package p
import "net/http"
func handle(w http.ResponseWriter, r *http.Request) {}
func plain(x int) {}`
	_, esc, funcs, _, _, _ := buildPT(t, src)
	h := fn(t, funcs, "handle")
	if !sharedCtxs(esc, esc.Contexts(h)) {
		t.Fatal("handler-shaped function must count as shared (per-request instances)")
	}
	p := fn(t, funcs, "plain")
	if sharedCtxs(esc, esc.Contexts(p)) {
		t.Fatal("plain function should not be shared")
	}
}

func TestLocsOfUntrackedReturnsNil(t *testing.T) {
	src := `package p
func ext() *int
func f() {
	p := ext()
	*p = 1
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	locs := pt.LocsOf(info, mustSel(t, file, fset, src, "f", "*p"))
	if len(locs) != 0 {
		t.Fatalf("deref of an untracked pointer must return no locations, got %v", locs)
	}
}

// sharedCtxs is the "reachable from more than one goroutine" test over a
// context set: at least two contexts, or one multi-instance context (every
// instance is its own goroutine).
func sharedCtxs(esc *Escape, s CtxSet) bool {
	if len(s) >= 2 {
		return true
	}
	for id := range s {
		if esc.Site(id).Multi {
			return true
		}
	}
	return false
}
