package flow

import (
	"go/types"
	"strings"
	"testing"
)

// findSite returns the first spawn site whose label starts with prefix.
func findSite(t *testing.T, esc *Escape, prefix string) *SpawnSite {
	t.Helper()
	for _, s := range esc.Sites()[1:] {
		if strings.HasPrefix(s.Label, prefix) {
			return s
		}
	}
	t.Fatalf("no %q spawn site among %d sites", prefix, len(esc.Sites()))
	return nil
}

func TestReachableFollowsFieldsAndVarStorage(t *testing.T) {
	src := `package p
type box struct {
	v    *int
	next *box
}
var g = &box{}
func build() *box {
	n := new(int)
	b := &box{v: n}
	b.next = g
	stray := new(int)
	_ = stray
	return b
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	bObjs := pt.PointeesOf(info, mustSel(t, file, fset, src, "build", "b"))
	if len(bObjs) != 1 {
		t.Fatalf("pointees of b: %v", bObjs)
	}
	nObjs := pt.PointeesOf(info, mustSel(t, file, fset, src, "build", "n"))
	gObjs := pt.PointeesOf(info, mustSel(t, file, fset, src, "build", "g"))
	strayObjs := pt.PointeesOf(info, mustSel(t, file, fset, src, "build", "stray"))
	if len(nObjs) != 1 || len(gObjs) != 1 || len(strayObjs) != 1 {
		t.Fatalf("pointees: n=%v g=%v stray=%v", nObjs, gObjs, strayObjs)
	}
	reach := pt.Reachable(bObjs)
	if !reach[bObjs[0]] {
		t.Error("root itself must be reachable")
	}
	if !reach[nObjs[0]] {
		t.Error("object stored in field v must be reachable from b")
	}
	if !reach[gObjs[0]] {
		t.Error("object stored in field next must be reachable from b")
	}
	if reach[strayObjs[0]] {
		t.Error("an alloc never stored inside b must not be reachable")
	}
	if pt.Reachable(nil)[bObjs[0]] {
		t.Error("empty roots reach nothing")
	}
}

func TestVarPointees(t *testing.T) {
	src := `package p
func f() *int {
	x := new(int)
	return x
}`
	pt, _, _, info, file, fset := buildPT(t, src)
	var xVar *types.Var
	for id, obj := range info.Defs {
		if v, ok := obj.(*types.Var); ok && id.Name == "x" {
			xVar = v
		}
	}
	if xVar == nil {
		t.Fatal("x not found")
	}
	if got := pt.VarPointees(xVar); len(got) != 1 {
		t.Fatalf("VarPointees(x) = %v, want the new(int) alloc", got)
	}
	unknown := types.NewVar(0, nil, "ghost", types.Typ[types.Int])
	if got := pt.VarPointees(unknown); got != nil {
		t.Fatalf("VarPointees of an untracked var = %v, want nil", got)
	}
	_ = file
	_ = fset
	_ = info
}

func TestSiteSeesGoCapture(t *testing.T) {
	src := `package p
type S struct{ n int }
var G = &S{}
func Spawn() {
	local := &S{}
	other := &S{}
	_ = other
	go func() {
		local.n++
	}()
}`
	pt, esc, _, info, file, fset := buildPT(t, src)
	site := findSite(t, esc, "go@")
	localObj := pt.PointeesOf(info, mustSel(t, file, fset, src, "Spawn", "local"))
	otherObj := pt.PointeesOf(info, mustSel(t, file, fset, src, "Spawn", "other"))
	if len(localObj) != 1 || len(otherObj) != 1 {
		t.Fatalf("pointees: local=%v other=%v", localObj, otherObj)
	}
	if !esc.SiteSees(site.ID, localObj[0]) {
		t.Error("the goroutine captures local: its pointee must be visible")
	}
	if esc.SiteSees(site.ID, otherObj[0]) {
		t.Error("other never crosses the spawn: it must be invisible to the goroutine")
	}
	if !esc.SiteSees(MainCtx, otherObj[0]) {
		t.Error("the main context sees everything")
	}
	// Package-level storage is visible to every context.
	var gVar *types.Var
	for id, obj := range info.Defs {
		if v, ok := obj.(*types.Var); ok && id.Name == "G" {
			gVar = v
		}
	}
	if gVar == nil || pt.VarStorage(gVar) == nil {
		t.Fatal("global G storage missing")
	}
	if !esc.SiteSees(site.ID, pt.VarStorage(gVar)) {
		t.Error("global storage must be visible to any context")
	}
}

func TestSiteSeesHandlerReceiver(t *testing.T) {
	src := `package p
import "net/http"
type Srv struct{ hits *int }
func (s *Srv) Handle(w http.ResponseWriter, r *http.Request) { *s.hits++ }
var srv = &Srv{hits: new(int)}
func use() { srv.Handle(nil, nil) }`
	pt, esc, _, info, file, fset := buildPT(t, src)
	site := findSite(t, esc, "handler ")
	srvObj := pt.PointeesOf(info, mustSel(t, file, fset, src, "use", "srv"))
	if len(srvObj) != 1 {
		t.Fatalf("pointees of srv: %v", srvObj)
	}
	if !esc.SiteSees(site.ID, srvObj[0]) {
		t.Error("a handler shares its receiver's state across requests")
	}
	hitsObj := pt.PointeesOf(info, mustSel(t, file, fset, src, "Handle", "s.hits"))
	if len(hitsObj) != 1 {
		t.Fatalf("pointees of s.hits: %v", hitsObj)
	}
	if !esc.SiteSees(site.ID, hitsObj[0]) {
		t.Error("state hanging off the receiver is in the handler's heap closure")
	}
}

// A function literal in a package-level initializer has no enclosing
// function; registering it used to dereference a nil generator context.
func TestGlobalFuncLitInitializer(t *testing.T) {
	src := `package p
var hook = func() int { return 1 }
func use() int { return hook() }`
	pt, _, _, _, _, _ := buildPT(t, src)
	lits := pt.LitFuncs()
	if len(lits) != 1 {
		t.Fatalf("expected the initializer literal to register, got %d", len(lits))
	}
	if !strings.HasPrefix(lits[0].Name, "func@") {
		t.Errorf("parentless literal name = %q, want a bare func@ label", lits[0].Name)
	}
}
