package core

import (
	"fmt"
	"testing"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/gen"
	"graftmatch/internal/matching"
	"graftmatch/internal/matchinit"
)

// checkForestInvariants verifies the structural invariants of the
// alternating BFS forest at a phase boundary (§III-B):
//
//  1. every visited Y has a parent that is a real edge and a root;
//  2. following parent/mate pointers from any visited Y reaches its root
//     along a valid alternating path, and root[] agrees along the way;
//  3. roots are unmatched X vertices (root[x] = x);
//  4. leaf[r] (when set) is an unmatched visited Y vertex in r's tree.
//
// Vertex-disjointness holds by construction (each Y has one parent slot,
// each matched X is reachable only via its unique mate), and the walk in
// (2) would diverge if it were violated.
func checkForestInvariants(t *testing.T, e *engine) {
	t.Helper()
	g := e.g
	for yi := 0; yi < int(g.NY()); yi++ {
		y := int32(yi)
		if !e.visitedTest(y) {
			if e.rootY[y] != none {
				t.Fatalf("unvisited y=%d has root %d", y, e.rootY[y])
			}
			continue
		}
		x := e.parentY[y]
		if x == none {
			t.Fatalf("visited y=%d has no parent", y)
		}
		if !g.HasEdge(x, y) {
			t.Fatalf("parent edge (%d,%d) does not exist", x, y)
		}
		root := e.rootY[y]
		if root == none {
			t.Fatalf("visited y=%d has no root", y)
		}
		// Walk y → root via parent/mate pointers, bounded by 2n hops.
		cur := y
		for hop := 0; ; hop++ {
			if hop > 2*int(g.NX())+2 {
				t.Fatalf("parent chain from y=%d does not terminate", y)
			}
			px := e.parentY[cur]
			if !g.HasEdge(px, cur) {
				t.Fatalf("chain edge (%d,%d) does not exist", px, cur)
			}
			if e.rootX[px] != root {
				t.Fatalf("root mismatch on chain from y=%d: rootX[%d]=%d, want %d", y, px, e.rootX[px], root)
			}
			if px == root {
				if e.m.MateX[px] != none {
					t.Fatalf("root %d is matched", px)
				}
				break
			}
			mateY := e.m.MateX[px]
			if mateY == none {
				t.Fatalf("interior X %d on chain from y=%d is unmatched but not the root", px, y)
			}
			if e.rootY[mateY] != root {
				t.Fatalf("mate y=%d of interior x=%d has root %d, want %d", mateY, px, e.rootY[mateY], root)
			}
			cur = mateY
		}
	}
	// Roots and leaves.
	for xi := 0; xi < int(g.NX()); xi++ {
		x := int32(xi)
		if e.m.MateX[x] == none && e.rootX[x] != none && e.rootX[x] != x {
			t.Fatalf("unmatched x=%d sits in tree rooted at %d", x, e.rootX[x])
		}
		if e.rootX[x] != x || e.m.MateX[x] != none {
			continue
		}
		if leaf := e.leaf[x]; leaf != none {
			if !e.visitedTest(leaf) {
				t.Fatalf("leaf[%d]=%d not visited", x, leaf)
			}
			if e.m.MateY[leaf] != none {
				t.Fatalf("leaf[%d]=%d is matched", x, leaf)
			}
			if e.rootY[leaf] != x {
				t.Fatalf("leaf[%d]=%d belongs to tree %d", x, leaf, e.rootY[leaf])
			}
		}
	}
}

// checkTreeYLog verifies that the tree-Y log holds each y with
// rootY[y] ≠ none exactly once, and nothing else.
func checkTreeYLog(t *testing.T, e *engine) {
	t.Helper()
	seen := make([]bool, e.g.NY())
	for _, y := range e.treeY.Slice() {
		if e.rootY[y] == none {
			t.Fatalf("logged y=%d has no root", y)
		}
		if seen[y] {
			t.Fatalf("y=%d logged twice", y)
		}
		seen[y] = true
	}
	for y, r := range e.rootY {
		if r != none && !seen[y] {
			t.Fatalf("y=%d with root %d missing from the log", y, r)
		}
	}
}

// checkCensus verifies, right after a census and the renewable reset, that
// the log holds exactly the surviving forest, that renewable Y were reset
// (in id order on a serial run), that the running cardinality is exact,
// and that the |activeX| derived from (nx − |M|) + |activeY| equals a full
// scan of X.
func checkCensus(t *testing.T, e *engine, activeX int64) {
	t.Helper()
	checkTreeYLog(t, e)
	for _, y := range e.treeY.Slice() {
		if e.leaf[e.rootY[y]] != none {
			t.Fatalf("renewable y=%d kept in the active log", y)
		}
	}
	ren := e.renewY.Slice()
	for i, y := range ren {
		if e.visitedTest(y) || e.parentY[y] != none {
			t.Fatalf("renewable y=%d not reset", y)
		}
		// Claim order would change the search: a serial run must graft
		// renewable Y in id order, as a scan of Y yields them.
		if e.opts.Threads == 1 && i > 0 && ren[i-1] >= y {
			t.Fatalf("serial renewable Y out of id order: %d before %d", ren[i-1], y)
		}
	}
	if card := e.m.Cardinality(); e.card != card {
		t.Fatalf("running cardinality %d, matching has %d", e.card, card)
	}
	var scan int64
	for _, r := range e.rootX {
		if r != none && e.leaf[r] == none {
			scan++
		}
	}
	if activeX != scan {
		t.Fatalf("derived |activeX| = %d, full scan counts %d", activeX, scan)
	}
}

// TestPhaseInvariants runs the engine with the white-box hooks installed
// and validates the forest and the tree-Y log at every phase boundary and
// the census identities after every census, across thread counts, option
// combinations and graph classes.
func TestPhaseInvariants(t *testing.T) {
	defer func() { phaseHook, censusHook = nil, nil }()

	type optionCase struct {
		name string
		opts Options
	}
	var optionCases []optionCase
	for _, p := range []int{1, 2, 4} {
		bitmapFull := FullOptions(p)
		bitmapFull.VisitedBitmap = true
		prefix := ""
		if p > 1 {
			prefix = fmt.Sprintf("p%d-", p)
		}
		optionCases = append(optionCases,
			optionCase{prefix + "plain", Options{Threads: p}.Defaults()},
			optionCase{prefix + "diropt", Options{Threads: p, DirectionOptimized: true}.Defaults()},
			optionCase{prefix + "graft", Options{Threads: p, Grafting: true}.Defaults()},
			optionCase{prefix + "full", FullOptions(p)},
			optionCase{prefix + "full-bitmap", bitmapFull},
		)
	}

	graphCases := []struct {
		name string
		mk   func() (*bipartite.Graph, *matching.Matching)
	}{
		{"er", func() (*bipartite.Graph, *matching.Matching) {
			g := gen.ER(150, 150, 550, 41)
			return g, matchinit.Greedy(g)
		}},
		{"weblike", func() (*bipartite.Graph, *matching.Matching) {
			g := gen.WebLike(8, 5, 0.35, 42)
			return g, matchinit.Greedy(g)
		}},
		{"grid", func() (*bipartite.Graph, *matching.Matching) {
			g := gen.StripDiagonal(gen.Grid(12, 12))
			return g, matchinit.KarpSipser(g, 1)
		}},
		{"empty-init", func() (*bipartite.Graph, *matching.Matching) {
			g := gen.ScaleFree(200, 200, 4, 43)
			return g, matching.New(g.NX(), g.NY())
		}},
	}

	for _, oc := range optionCases {
		for _, gc := range graphCases {
			t.Run(fmt.Sprintf("%s/%s", oc.name, gc.name), func(t *testing.T) {
				phases, censuses := 0, 0
				phaseHook = func(e *engine) {
					phases++
					checkForestInvariants(t, e)
					checkTreeYLog(t, e)
				}
				censusHook = func(e *engine, activeX int64) {
					censuses++
					checkCensus(t, e, activeX)
				}
				defer func() { phaseHook, censusHook = nil, nil }()
				g, m := gc.mk()
				Run(g, m, oc.opts)
				if phases == 0 {
					t.Fatal("hook never fired")
				}
				if censuses != phases-1 {
					t.Fatalf("%d censuses in %d phases, want one after every augmenting phase", censuses, phases)
				}
				if err := matching.VerifyMaximum(g, m); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
