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

// buildPTPath is buildPT with a chosen package import path (so tests can
// exercise the internal/par spawn-site recognition, which keys on the
// callee's package path suffix).
func buildPTPath(t *testing.T, pkgPath, src string) (*PointsTo, *Escape, []*Func, *types.Info, *ast.File, *token.FileSet) {
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
	if _, err := conf.Check(pkgPath, fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	funcs := CollectFuncs(pkgPath, info, []*ast.File{f})
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

func TestPointsToRangeForms(t *testing.T) {
	src := `package p
type T struct{ v int }
func overSlice(xs []*T) *T {
	for _, x := range xs {
		return x
	}
	return nil
}
func overMap(m map[*T]*T) (*T, *T) {
	for k, v := range m {
		return k, v
	}
	return nil, nil
}
func overChan(ch chan *T) *T {
	for x := range ch {
		return x
	}
	return nil
}
func overArray(a [2]*T) *T {
	for _, x := range a {
		return x
	}
	return nil
}
func drive() {
	t := &T{}
	overSlice([]*T{t})
	overMap(map[*T]*T{t: t})
	ch := make(chan *T, 1)
	ch <- t
	overChan(ch)
	overArray([2]*T{t, t})
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	for _, fn := range []string{"overSlice", "overChan", "overArray"} {
		e := mustSel(t, file, fset, src, fn, "x")
		if got := pt.PointeesOf(info, e); len(got) != 1 {
			t.Errorf("%s: range value should carry the element, got %v", fn, got)
		}
	}
	kExpr := mustSel(t, file, fset, src, "overMap", "k")
	vExpr := mustSel(t, file, fset, src, "overMap", "v")
	if got := pt.PointeesOf(info, vExpr); len(got) != 1 {
		t.Errorf("map range value should carry the element, got %v", got)
	}
	if got := pt.PointeesOf(info, kExpr); len(got) != 1 {
		t.Errorf("map range key should carry the key object, got %v", got)
	}
}

func TestPointsToMultiValueForms(t *testing.T) {
	src := `package p
type T struct{ v int }
func pair() (*T, *T) { return &T{}, &T{} }
func f() (*T, *T, *T, *T, *T) {
	a, b := pair()
	m := map[string]*T{"k": &T{}}
	c, _ := m["k"]
	var i interface{} = &T{}
	d, _ := i.(*T)
	ch := make(chan *T, 1)
	ch <- &T{}
	e, _ := <-ch
	return a, b, c, d, e
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		ex := mustSel(t, file, fset, src, "f", name)
		if got := pt.PointeesOf(info, ex); len(got) != 1 {
			t.Errorf("%s: expected exactly one pointee, got %v", name, got)
		}
	}
	// a and b come from distinct result slots.
	a := pt.PointeesOf(info, mustSel(t, file, fset, src, "f", "a"))
	b := pt.PointeesOf(info, mustSel(t, file, fset, src, "f", "b"))
	if len(a) == 1 && len(b) == 1 && a[0] == b[0] {
		t.Error("multi-result call conflated its result slots")
	}
}

func TestPointsToVariadicAndConversions(t *testing.T) {
	src := `package p
type T struct{ v int }
type MyT = *T
func sink(xs ...*T) *T {
	for _, x := range xs {
		return x
	}
	return nil
}
func f() (*T, *T) {
	u := sink(&T{}, &T{})
	w := (MyT)(&T{})
	return u, w
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	u := pt.PointeesOf(info, mustSel(t, file, fset, src, "f", "u"))
	if len(u) != 2 {
		t.Errorf("variadic args should land in the parameter's elements: %v", u)
	}
	w := pt.PointeesOf(info, mustSel(t, file, fset, src, "f", "w"))
	if len(w) != 1 {
		t.Errorf("conversion should flow its operand through: %v", w)
	}
}

func TestPointsToValueReceiverVariants(t *testing.T) {
	src := `package p
type S struct{ p *int }
func (s S) Get() *int  { return s.p }
func (s *S) PGet() *int { return s.p }
func f() (*int, *int, *int) {
	x := new(int)
	s := S{p: x}
	ps := &S{p: x}
	return s.Get(), ps.Get(), s.PGet()
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	for _, want := range []string{"s.Get()", "ps.Get()", "s.PGet()"} {
		ex := mustSel(t, file, fset, src, "f", want)
		if got := pt.PointeesOf(info, mustNodeQuery(pt, info, ex)); got == nil {
			_ = got
		}
	}
	// Query via named results instead: rewrite with locals.
	src2 := `package p
type S struct{ p *int }
func (s S) Get() *int  { return s.p }
func (s *S) PGet() *int { return s.p }
func f() (*int, *int, *int) {
	x := new(int)
	s := S{p: x}
	ps := &S{p: x}
	a := s.Get()
	b := ps.Get()
	c := s.PGet()
	return a, b, c
}`
	pt2, _, _, info2, file2, fset2 := buildPT(t, src2)
	for _, name := range []string{"a", "b", "c"} {
		ex := mustSel(t, file2, fset2, src2, "f", name)
		if got := pt2.PointeesOf(info2, ex); len(got) != 1 {
			t.Errorf("%s: receiver linking lost the pointee, got %v", name, got)
		}
	}
}

// mustNodeQuery is a no-op passthrough kept to exercise PointeesOf on raw
// call expressions (which are untracked by design and must return nil, not
// panic).
func mustNodeQuery(pt *PointsTo, info *types.Info, e ast.Expr) ast.Expr { return e }

func TestPointsToBuiltinsAndSlices(t *testing.T) {
	src := `package p
type T struct{ v int }
func f() (*T, *T, *T) {
	a := make([]*T, 0, 4)
	a = append(a, &T{})
	b := make([]*T, 1)
	copy(b, a)
	more := []*T{&T{}}
	a = append(a, more...)
	tail := a[1:]
	return a[0], b[0], tail[0]
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	a0 := pt.PointeesOf(info, mustSel(t, file, fset, src, "f", "a[0]"))
	if len(a0) != 2 {
		t.Errorf("append + spread-append should accumulate both allocs: %v", a0)
	}
	b0 := pt.PointeesOf(info, mustSel(t, file, fset, src, "f", "b[0]"))
	if len(b0) == 0 {
		t.Errorf("copy should flow source elements into dst: %v", b0)
	}
	t0 := pt.PointeesOf(info, mustSel(t, file, fset, src, "f", "tail[0]"))
	if len(t0) != 2 {
		t.Errorf("reslicing shares the backing store: %v", t0)
	}
}

func TestPointsToDerefAndNestedComposite(t *testing.T) {
	src := `package p
type Inner struct{ p *int }
type Outer struct {
	in   Inner
	pin  *Inner
	m    map[string]*Inner
	list []*Inner
}
func f() (*int, *Inner, *Inner, *Inner) {
	x := new(int)
	o := &Outer{
		in:   Inner{p: x},
		pin:  &Inner{p: x},
		m:    map[string]*Inner{"k": {p: x}},
		list: []*Inner{{p: x}},
	}
	pp := &o.in
	q := *&o.pin
	return pp.p, q, o.m["k"], o.list[0]
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	got := pt.PointeesOf(info, mustSel(t, file, fset, src, "f", "pp.p"))
	if len(got) != 1 {
		t.Errorf("nested value-composite field should hold x: %v", got)
	}
	for _, want := range []string{"q", `o.m["k"]`, "o.list[0]"} {
		ex := mustSel(t, file, fset, src, "f", want)
		if got := pt.PointeesOf(info, ex); len(got) != 1 {
			t.Errorf("%s: expected one pointee, got %v", want, got)
		}
	}
	// LocsOf through a pointer base and an index.
	locs := pt.LocsOf(info, mustSel(t, file, fset, src, "f", "o.pin"))
	if len(locs) != 1 || locs[0].Path != "pin" {
		t.Errorf("o.pin loc: %v", locs)
	}
	// The map literal is its own allocation; its elements canonicalize to
	// (mapAlloc, "[]").
	elemLocs := pt.LocsOf(info, mustSel(t, file, fset, src, "f", `o.m["k"]`))
	if len(elemLocs) != 1 || elemLocs[0].Path != "[]" {
		t.Errorf("map element loc should be (mapAlloc, []): %v", elemLocs)
	}
}

func TestPointsToGlobalInitAndStrings(t *testing.T) {
	src := `package p
type T struct{ v int }
var def = &T{}
var tab = map[string]*T{"d": def}
func get() *T { return tab["d"] }`
	pt, _, _, info, file, fset := buildPT(t, src)
	got := pt.PointeesOf(info, mustSel(t, file, fset, src, "get", `tab["d"]`))
	if len(got) != 1 {
		t.Fatalf("global init chain broken: %v", got)
	}
	if s := got[0].String(); s == "" {
		t.Error("Object.String should be non-empty")
	}
	locs := pt.LocsOf(info, mustSel(t, file, fset, src, "get", `tab["d"]`))
	if len(locs) != 1 {
		t.Fatalf("map element locs: %v", locs)
	}
	if s := locs[0].String(); !strings.Contains(s, "[]") {
		t.Errorf("Loc.String should show the element path, got %q", s)
	}
	// VarStorage materialized the globals.
	var defVar *types.Var
	for id, obj := range info.Defs {
		if v, ok := obj.(*types.Var); ok && id.Name == "def" {
			defVar = v
		}
	}
	if defVar == nil || pt.VarStorage(defVar) == nil {
		t.Error("VarStorage should know the global's storage object")
	}
}

func TestPointsToEnclosingOfAndLitFuncs(t *testing.T) {
	src := `package p
func outer() func() {
	inner := func() {}
	return inner
}`
	pt, _, _, _, _, _ := buildPT(t, src)
	lits := pt.LitFuncs()
	if len(lits) != 1 {
		t.Fatalf("expected 1 literal, got %d", len(lits))
	}
	if !strings.HasPrefix(lits[0].Name, "p.outer.func@") {
		t.Errorf("literal name = %q, want it qualified by its enclosing outer", lits[0].Name)
	}
}

func TestEscapeParRegionByPackagePath(t *testing.T) {
	src := `package par
func For(n int, f func(int)) {
	for i := 0; i < n; i++ {
		f(i)
	}
}
func caller() {
	body := func(i int) {}
	For(4, body)
	after()
}
func after() {}`
	pt, esc, funcs, _, _, _ := buildPTPath(t, "graftmatch/internal/par", src)
	lits := pt.LitFuncs()
	if len(lits) != 1 {
		t.Fatalf("expected the worker literal, got %d", len(lits))
	}
	var parSite *SpawnSite
	for id := range esc.Contexts(lits[0]) {
		if id != MainCtx {
			parSite = esc.Site(id)
		}
	}
	if parSite == nil || !parSite.Multi || !parSite.Sync {
		t.Fatalf("par worker body should run in a Multi+Sync site, got %+v", parSite)
	}
	if !strings.HasPrefix(parSite.Label, "par@") {
		t.Errorf("site label: %q", parSite.Label)
	}
	// The caller does not share the synchronous region's context.
	c := fn(t, funcs, "caller")
	if esc.Contexts(c)[parSite.ID] {
		t.Error("caller must not share the synchronously joined region")
	}
	if sharedCtxs(esc, esc.Contexts(c)) {
		t.Error("caller should remain main-only")
	}
	if got := len(esc.Sites()); got < 2 {
		t.Errorf("Sites should include main + par site, got %d", got)
	}
}

func TestEscapePoolReceiverIsParRegion(t *testing.T) {
	src := `package p
type Pool struct{}
func (p *Pool) ForCtx(n int, f func(int)) {}
func caller(p *Pool) {
	p.ForCtx(2, func(i int) {})
}`
	pt, esc, _, _, _, _ := buildPT(t, src)
	lits := pt.LitFuncs()
	if len(lits) != 1 {
		t.Fatalf("expected 1 literal, got %d", len(lits))
	}
	multi := false
	for id := range esc.Contexts(lits[0]) {
		if id != MainCtx && esc.Site(id).Multi && esc.Site(id).Sync {
			multi = true
		}
	}
	if !multi {
		t.Error("Pool method submission should be a Multi+Sync spawn site")
	}
}

func TestEscapeHandlerRegistration(t *testing.T) {
	src := `package p
import (
	"net/http"
	"time"
)
func install() {
	http.HandleFunc("/x", func(w http.ResponseWriter, r *http.Request) {})
	time.AfterFunc(time.Second, tick)
}
func tick() {}`
	pt, esc, funcs, _, _, _ := buildPT(t, src)
	lits := pt.LitFuncs()
	if len(lits) != 1 {
		t.Fatalf("expected handler literal, got %d", len(lits))
	}
	if !sharedCtxs(esc, esc.Contexts(lits[0])) {
		t.Error("registered handler literal must count as shared")
	}
	tk := fn(t, funcs, "tick")
	found := false
	for id := range esc.Contexts(tk) {
		if id != MainCtx && strings.HasPrefix(esc.Site(id).Label, "handler-reg@") {
			found = true
		}
	}
	if !found {
		t.Errorf("AfterFunc target should carry a handler-reg context: %v", esc.Contexts(tk).IDs())
	}
}

func TestEscapeAccessContextsAndCtxSetOps(t *testing.T) {
	src := `package p
func f() { go g() }
func g() {}`
	_, esc, funcs, _, _, _ := buildPT(t, src)
	g := fn(t, funcs, "g")
	ac := esc.AccessContexts(g, g.Body.Pos())
	if len(ac) != len(esc.Contexts(g)) {
		t.Error("AccessContexts should return the function's context set")
	}
	ac[99] = true
	if esc.Contexts(g)[99] {
		t.Error("AccessContexts must return a clone, not the live set")
	}
	ids := esc.Contexts(g).IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Error("IDs must be ascending")
		}
	}
}

func TestEscapeIndirectSpawnThroughFuncPointees(t *testing.T) {
	// go through a func-typed variable whose target only the points-to
	// substrate knows.
	src := `package p
func mk() func() { return body }
func body() {}
func f() {
	h := mk()
	go h()
}`
	_, esc, funcs, _, _, _ := buildPT(t, src)
	b := fn(t, funcs, "body")
	spawned := false
	for id := range esc.Contexts(b) {
		if id != MainCtx {
			spawned = true
		}
	}
	if !spawned {
		t.Error("spawn through a tracked function value should reach body")
	}
}

func TestPointsToSelfAssignAndOpAssign(t *testing.T) {
	src := `package p
type T struct{ v int }
func f() *T {
	x := &T{}
	x = x
	n := 1
	n += 2
	_ = n
	return x
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	got := pt.PointeesOf(info, mustSel(t, file, fset, src, "f", "x"))
	if len(got) != 1 {
		t.Errorf("self-assign must converge with one pointee: %v", got)
	}
}
