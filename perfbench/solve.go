package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"graftmatch"
	"graftmatch/internal/matching"
	"graftmatch/internal/matchinit"
)

// cell is one engine configuration a solve workload times on every input.
type cell struct {
	name    string
	alg     graftmatch.Algorithm
	threads int
	layer   string // package the engine lives in
}

// cells are the engine configurations; the first is the facade default,
// the one round_ms reports.
var cells = []cell{
	{"graft", graftmatch.MSBFSGraft, 2, "core"},
	{"graft_p1", graftmatch.MSBFSGraft, 1, "core"},
	{"pf", graftmatch.PothenFan, 2, "pf"},
	{"pr", graftmatch.PushRelabel, 2, "pushrelabel"},
}

// roundCells is what round r runs: the default cell and one of the others,
// taken in turn, in an order that alternates. Every round thus yields a
// sample of the default, and drift in the machine's speed spreads over all
// cells instead of landing on whichever ran last. The order changes every
// third round, so it is independent of which rounds are traced (the even
// ones).
func roundCells(r int) []cell {
	other := cells[1+r%(len(cells)-1)]
	if (r/(len(cells)-1))%2 == 1 {
		return []cell{other, cells[0]}
	}
	return []cell{cells[0], other}
}

// solveSpec describes one solve workload.
type solveSpec struct {
	init   graftmatch.Initializer
	inputs func(seed int64) []instance
	// rotate makes a round solve one input, the next one every second
	// round (so traced and untraced rounds see every input), with a fresh
	// Karp–Sipser order each round; otherwise a round solves every input.
	rotate bool
	// check asserts the properties the workload was chosen for, given the
	// inputs, their maximum cardinalities, what the initializer left, and
	// the Graft phases per input.
	check func(insts []instance, max, initCard, phases []int64) error
}

func runSkewedGreedy(cfg config) (*report, error) {
	return runSolve(cfg, solveSpec{init: graftmatch.Greedy, inputs: skewedInputs, check: checkSkewed})
}

func runMeshKS(cfg config) (*report, error) {
	return runSolve(cfg, solveSpec{init: graftmatch.KarpSipser, inputs: meshInputs, rotate: true, check: checkMesh})
}

// checkSkewed: the matching number stays low, overall and on the networks
// class, so grafting and the per-phase census carry the solve.
func checkSkewed(insts []instance, max, _, _ []int64) error {
	var card, side int64
	for i, in := range insts {
		card += max[i]
		side += minSide(in.g)
		if f := float64(max[i]) / float64(minSide(in.g)); in.name == "wikipedia" && f > 0.3 {
			return fmt.Errorf("property: %s matching fraction %.3f, want <= 0.3", in.name, f)
		}
	}
	if f := float64(card) / float64(side); f > 0.5 {
		return fmt.Errorf("property: matching fraction %.3f over all inputs, want <= 0.5", f)
	}
	return nil
}

// checkMesh: Karp–Sipser leaves a gap that takes Graft many thin phases.
func checkMesh(insts []instance, max, initCard, phases []int64) error {
	for i, in := range insts {
		if gap := max[i] - initCard[i]; gap < 300 {
			return fmt.Errorf("property: Karp–Sipser leaves %d unmatched on %s, want >= 300", gap, in.name)
		}
		if phases[i] < 25 {
			return fmt.Errorf("property: Graft took %d phases on %s, want >= 25", phases[i], in.name)
		}
	}
	return nil
}

// solveRun holds one run's state.
type solveRun struct {
	cfg   config
	spec  solveSpec
	insts []instance
	max   []int64
	rep   *report
}

// round is what one round solves: which inputs, from which Karp–Sipser
// order.
type round struct {
	r      int
	inputs []int
	ks     int64
}

func (s *solveRun) round(r int) round {
	if !s.spec.rotate {
		all := make([]int, len(s.insts))
		for i := range all {
			all[i] = i
		}
		return round{r: r, inputs: all, ks: subSeed(s.cfg.seed, 1000)}
	}
	return round{r: r, inputs: []int{(r / 2) % len(s.insts)}, ks: subSeed(s.cfg.seed, 1001+r)}
}

func (s *solveRun) opts(c cell, ks int64) graftmatch.Options {
	return graftmatch.Options{Algorithm: c.alg, Threads: c.threads, Initializer: s.spec.init, Seed: ks}
}

// initialize runs the workload's initializer the way the facade does.
func (s *solveRun) initialize(g *graftmatch.Graph, ks int64) *matching.Matching {
	if s.spec.init == graftmatch.KarpSipser {
		return matchinit.KarpSipser(g, ks)
	}
	return matchinit.Greedy(g)
}

func runSolve(cfg config, spec solveSpec) (*report, error) {
	rep := newReport()
	insts, setupS, err := timedSetup(func() ([]instance, error) { return spec.inputs(cfg.seed), nil }, nil)
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS
	rep.layer["gen.build_s"] = setupS
	s := &solveRun{cfg: cfg, spec: spec, insts: insts, rep: rep}
	if err := s.reference(); err != nil {
		return nil, err
	}

	// Warm-up: every cell on the first input and the default cell on every
	// input, untimed, fill caches, finish lazy set-up, and check the
	// workload's properties on the Graft runs.
	initCard := make([]int64, len(insts))
	phases := make([]int64, len(insts))
	ks := s.round(0).ks
	for _, c := range cells {
		for i, in := range insts {
			if i > 0 && c.name != cells[0].name {
				continue
			}
			res, err := graftmatch.MatchContext(context.Background(), in.g, s.opts(c, ks))
			if err := s.check(c, i, res, err); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if c.name == "graft" {
				initCard[i], phases[i] = res.Stats.InitialCardinality, res.Stats.Phases
			}
		}
	}
	if err := spec.check(insts, s.max, initCard, phases); err != nil {
		return nil, err
	}

	rounds := make(map[string][]float64) // cell → per-round summed solve ms
	traced := make(map[string][]layerRound)
	var solves int64
	var solveTime time.Duration
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start).Seconds() < cfg.seconds; r++ {
		tr := cfg.trace != nil && r%2 == 0
		rd := s.round(r)
		for _, c := range roundCells(r) {
			var sum time.Duration
			var lr layerRound
			for _, i := range rd.inputs {
				var d time.Duration
				if tr {
					d = s.tracedSolve(c, i, rd, &lr)
				} else {
					d = s.solve(c, i, rd)
				}
				sum += d
				solves++
				solveTime += d
			}
			if tr {
				traced[c.name] = append(traced[c.name], lr)
			} else {
				rounds[c.name] = append(rounds[c.name], ms(sum))
			}
		}
	}

	g := rounds["graft"]
	t := tailOf(g)
	rep.e2e["round_ms_p50"] = median(g)
	rep.e2e["round_ms_tail"] = t.Value
	rep.e2e["throughput_per_s"] = float64(solves) / solveTime.Seconds()
	if spec.rotate {
		rep.notef("round_ms: one of %d inputs, in turn, solved by the facade with MS-BFS-Graft at Threads=2", len(insts))
	} else {
		rep.notef("round_ms: the %d inputs solved by the facade with MS-BFS-Graft at Threads=2", len(insts))
	}
	rep.notef("round_ms_tail is %s", t)
	for _, c := range cells {
		xs := rounds[c.name]
		rep.notef("%-16s %10.3f ms   tail %10.3f ms (%s)", c.name+"_ms_p50", median(xs), tailOf(xs).Value, tailOf(xs))
	}
	if cfg.trace != nil {
		if err := s.layerMetrics(rounds, traced); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// reference proves every input's maximum cardinality.
func (s *solveRun) reference() error {
	for _, in := range s.insts {
		card, err := maximum(in.name, in.g)
		if err != nil {
			return err
		}
		s.max = append(s.max, card)
	}
	return nil
}

// solve times one facade call; the answer is checked after the clock stops.
func (s *solveRun) solve(c cell, i int, rd round) time.Duration {
	settle()
	t0 := time.Now()
	res, err := graftmatch.MatchContext(context.Background(), s.insts[i].g, s.opts(c, rd.ks))
	d := time.Since(t0)
	s.record(c, i, res, err, rd.r)
	return d
}

// record counts one solve and its outcome.
func (s *solveRun) record(c cell, i int, res *graftmatch.Result, err error, r int) {
	s.rep.attempted++
	vid := s.cfg.trace.begin("verify", "matching", noSpan, r)
	cerr := s.check(c, i, res, err)
	s.cfg.trace.end(vid)
	if cerr != nil {
		s.rep.fail(cerr)
	}
}

// check proves one answer maximum and equal to the reference cardinality.
func (s *solveRun) check(c cell, i int, res *graftmatch.Result, err error) error {
	in := s.insts[i]
	switch {
	case err != nil:
		return fmt.Errorf("%s on %s: %w", c.name, in.name, err)
	case !res.Complete:
		return fmt.Errorf("%s on %s: incomplete", c.name, in.name)
	case res.Cardinality != s.max[i]:
		return wrongf("%s on %s: cardinality %d, reference %d", c.name, in.name, res.Cardinality, s.max[i])
	}
	if err := graftmatch.VerifyMaximum(in.g, res.MateX, res.MateY); err != nil {
		return wrongf("%s on %s: %v", c.name, in.name, err)
	}
	return nil
}

// layerRound sums one traced cell round over the inputs.
type layerRound struct {
	solve, init, engine, verify time.Duration
	steps                       [matching.NumSteps]time.Duration
	phases, edges, tdLevels     int64
	buLevels, unmatched         int64
	allocBytes                  uint64
}

// tracedSolve splits the facade call into its layers — initializer, then the
// engine resumed from the initial matching — with a span around each, and
// reads the engine's Stats and allocation.
func (s *solveRun) tracedSolve(c cell, i int, rd round, lr *layerRound) time.Duration {
	tr := s.cfg.trace
	in := s.insts[i]
	settle()
	var m0, m1 runtime.MemStats
	sid := tr.begin("solve "+c.name+" "+in.name, rootLayer, noSpan, rd.r)
	t0 := time.Now()
	iid := tr.begin("init", "matchinit", sid, rd.r)
	m := s.initialize(in.g, rd.ks)
	ti := time.Since(t0)
	tr.end(iid)
	runtime.ReadMemStats(&m0)
	eid := tr.begin(c.alg.String(), c.layer, sid, rd.r)
	te := time.Now()
	res, err := graftmatch.ResumeMatchContext(context.Background(), in.g, m.MateX, m.MateY, s.opts(c, rd.ks))
	de := time.Since(te)
	tr.end(eid)
	runtime.ReadMemStats(&m1)
	d := time.Since(t0)
	tr.end(sid)

	lr.solve += d
	lr.init += ti
	lr.engine += de
	lr.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	lr.unmatched += s.max[i] - m.Cardinality()
	if err == nil && res.Stats != nil {
		st := res.Stats
		for k := range lr.steps {
			lr.steps[k] += st.StepTime[k]
		}
		lr.phases += st.Phases
		lr.edges += st.EdgesTraversed
		lr.tdLevels += st.TopDownLevels
		lr.buLevels += st.BottomUpLevels
	}
	tv := time.Now()
	s.record(c, i, res, err, rd.r)
	lr.verify += time.Since(tv)
	return d
}

// layerMetrics fills the per-layer metrics from the traced rounds (spans and
// engine Stats) and the untraced rounds of the same run.
func (s *solveRun) layerMetrics(rounds map[string][]float64, traced map[string][]layerRound) error {
	L := s.rep.layer
	med := func(cellName string, f func(layerRound) float64) float64 {
		var xs []float64
		for _, lr := range traced[cellName] {
			xs = append(xs, f(lr))
		}
		return median(xs)
	}
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }

	step := func(k matching.Step) func(layerRound) float64 {
		return func(lr layerRound) float64 { return ms(lr.steps[k]) }
	}
	L["core.topdown_ms"] = med("graft", step(matching.StepTopDown))
	L["core.bottomup_ms"] = med("graft", step(matching.StepBottomUp))
	L["core.augment_ms"] = med("graft", step(matching.StepAugment))
	L["core.graft_ms"] = med("graft", step(matching.StepGraft))
	L["core.statistics_ms"] = med("graft", step(matching.StepStatistics))
	L["core.phases"] = med("graft", func(lr layerRound) float64 { return float64(lr.phases) })
	L["core.edges"] = med("graft", func(lr layerRound) float64 { return float64(lr.edges) })
	L["core.td_levels"] = med("graft", func(lr layerRound) float64 { return float64(lr.tdLevels) })
	L["core.bu_levels"] = med("graft", func(lr layerRound) float64 { return float64(lr.buLevels) })
	L["core.alloc_mb"] = med("graft", func(lr layerRound) float64 { return mb(lr.allocBytes) })

	p1, p2 := median(rounds["graft_p1"]), median(rounds["graft"])
	L["par.graft_p1_ms"] = p1
	if p2 > 0 {
		L["par.graft_speedup_p2"] = p1 / p2
	}
	for _, e := range []struct{ cell, layer, phases string }{
		{"pf", "pf", "pf.phases"},
		{"pr", "pushrelabel", "pushrelabel.relabels"},
	} {
		L[e.layer+".engine_ms"] = med(e.cell, func(lr layerRound) float64 { return ms(lr.engine) })
		L[e.phases] = med(e.cell, func(lr layerRound) float64 { return float64(lr.phases) })
		L[e.layer+".edges"] = med(e.cell, func(lr layerRound) float64 { return float64(lr.edges) })
		L[e.layer+".alloc_mb"] = med(e.cell, func(lr layerRound) float64 { return mb(lr.allocBytes) })
	}
	L["matchinit.ms"] = med("graft", func(lr layerRound) float64 { return ms(lr.init) })
	L["matchinit.unmatched"] = med("graft", func(lr layerRound) float64 { return float64(lr.unmatched) })
	L["matching.verify_ms"] = med("graft", func(lr layerRound) float64 { return ms(lr.verify) })

	tracedRound := med("graft", func(lr layerRound) float64 { return ms(lr.solve) })
	overhead := 100 * (tracedRound - p2) / p2
	L["trace.overhead_pct"] = overhead
	s.rep.notef("traced graft round %.3f ms against untraced %.3f ms", tracedRound, p2)
	return checkSelfTimes(s.rep, s.cfg.trace, overhead)
}
