package core

import (
	"testing"

	"graftmatch/internal/gen"
	"graftmatch/internal/hk"
	"graftmatch/internal/matching"
	"graftmatch/internal/matchinit"
)

// TestAugmentRootTestRaceFree runs augment under -race at p=2 and p=4 on
// long, thin paths. Augment's path-start test reads only rootY and leaf
// (leaf[rootY[y]] == y), which augment never writes, and only a path's own
// walk touches its mates. A stripped mesh after Karp–Sipser leaves a few
// long paths per phase, walked while other workers scan the rest of the
// tree-Y log.
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
