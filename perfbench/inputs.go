package main

import (
	"fmt"

	"graftmatch"
	"graftmatch/internal/gen"
)

// instance is one generated input graph.
type instance struct {
	name string
	g    *graftmatch.Graph
}

// subSeed derives the generator seed of input i from the workload seed, so
// that one seed fixes every input and no two inputs share a stream.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// skewedInputs are the scale-free and networks classes of the experiment
// suite at its Large parameters: low matching number, skewed degrees, and
// about 2-3 MB of CSR each, so one graph fits in a 4 MB L2.
func skewedInputs(seed int64) []instance {
	return []instance{
		{"RMAT", gen.RMAT(15, 8, 0.57, 0.19, 0.19, subSeed(seed, 0))},
		{"amazon0312", gen.ScaleFree(48000, 48000, 4, subSeed(seed, 1))},
		{"cit-patents", gen.ScaleFree(56000, 56000, 5, subSeed(seed, 2))},
		{"coPapersDBLP", gen.ScaleFree(40000, 40000, 8, subSeed(seed, 3))},
		{"wikipedia", gen.WebLike(15, 5, 0.35, subSeed(seed, 4))},
		{"web-Google", gen.WebLike(15, 6, 0.30, subSeed(seed, 5))},
		{"wb-edu", gen.WebLike(15, 7, 0.40, subSeed(seed, 6))},
		{"rank-deficient", gen.RankDeficient(64000, 64000, 20800, 3, subSeed(seed, 7))},
	}
}

// A rotating workload cycles through several independently generated
// graphs of one kind. One graph's structure moves its solve time from seed
// to seed: a mesh's top-down depth by ~7%, a banded graph's superstep count
// by ~20%. A run that saw one graph would measure its seed; cycling through
// several averages that out.
const (
	meshVariants = 4
	clusterPairs = 8
)

// meshInputs are delaunay stand-ins: 400×400 triangulated meshes with the
// diagonal stripped (160k vertices a side, ~478k edges, a working set above
// a 4 MB L2). Greedy matches them perfectly; Karp–Sipser leaves several
// hundred vertices for the engine.
func meshInputs(seed int64) []instance {
	out := make([]instance, meshVariants)
	for v := range out {
		out[v] = meshInput(seed, v)
	}
	return out
}

func meshInput(seed int64, v int) instance {
	return instance{fmt.Sprintf("mesh-%d", v), gen.StripDiagonal(gen.Mesh(400, 400, subSeed(seed, 100+v)))}
}

// clusterInputs pairs the two regimes of a distributed run, clusterPairs times:
// a WebLike graph whose few hundred supersteps carry over a million
// messages (volume-bound), and a banded kkt_power stand-in whose long
// augmenting paths take thousands of nearly empty supersteps
// (latency-bound). Pair v is inputs 2v and 2v+1.
func clusterInputs(seed int64) []instance {
	var out []instance
	for v := 0; v < clusterPairs; v++ {
		out = append(out,
			instance{fmt.Sprintf("web-Google-%d", v), gen.WebLike(15, 6, 0.30, subSeed(seed, 200+2*v))},
			instance{fmt.Sprintf("kkt_power-%d", v), gen.StripDiagonal(gen.Banded(48000, 4, 0.6, subSeed(seed, 201+2*v)))})
	}
	return out
}

// minSide is the largest possible matching of g.
func minSide(g *graftmatch.Graph) int64 { return int64(min(g.NX(), g.NY())) }

// maximum computes g's maximum cardinality with the serial Hopcroft–Karp
// engine, independent of the engines under test, and proves it maximum.
func maximum(name string, g *graftmatch.Graph) (int64, error) {
	res, err := graftmatch.Match(g, graftmatch.Options{Algorithm: graftmatch.HopcroftKarp, Initializer: graftmatch.Greedy})
	if err == nil {
		err = graftmatch.VerifyMaximum(g, res.MateX, res.MateY)
	}
	if err != nil {
		return 0, fmt.Errorf("reference %s: %w", name, err)
	}
	return res.Cardinality, nil
}
