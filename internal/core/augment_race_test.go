package core

import (
	"testing"

	"graftmatch/internal/gen"
	"graftmatch/internal/hk"
	"graftmatch/internal/matching"
	"graftmatch/internal/matchinit"
)

// TestAugmentRootTestRaceFree pins the order of augment's root test. Worker
// A must not read mateX[x0] for a non-root x0 while worker B flips mateX[x0]
// on its own augmenting path; testing rootX[x0] first (augment never writes
// rootX, and only a root's own walk writes its mate) keeps the read private.
// A stripped mesh after Karp–Sipser leaves a few long, thin paths spread
// over many 512-vertex chunks, so `go test -race` catches the regression.
func TestAugmentRootTestRaceFree(t *testing.T) {
	g := gen.StripDiagonal(gen.Mesh(60, 60, 3))
	ref := matching.New(g.NX(), g.NY())
	hk.Run(g, ref)
	for _, p := range []int{2, 4} {
		m := matchinit.KarpSipser(g, 1)
		Run(g, m, Options{Threads: p}.Defaults())
		if err := matching.VerifyMaximum(g, m); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if m.Cardinality() != ref.Cardinality() {
			t.Fatalf("p=%d: cardinality %d, want %d", p, m.Cardinality(), ref.Cardinality())
		}
	}
}
