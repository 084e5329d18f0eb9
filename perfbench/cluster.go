package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"graftmatch"
	"graftmatch/internal/dist"
	"graftmatch/internal/matching"
)

const (
	clusterRanks = 2 // K = nproc on the 2-core host the baseline was taken on
	// clusterHeartbeat sets how soon workers exit after a run: a worker
	// lingers for about one lease (8 heartbeats) after the coordinator's
	// final frame, so the 500 ms default would keep every run's workers
	// alive ~4.5 s.
	clusterHeartbeat = 25 * time.Millisecond
	clusterTimeout   = 60 * time.Second
)

// clusterRun is one timed distributed run, from NewCoordinator to Run
// returning the matching. The workers exit after that, while the next run
// goes on: they linger for about one lease, which is untimed waiting, and
// exited reports when they are gone.
type clusterRun struct {
	total, join time.Duration // join: the last worker's first attach
	stats       dist.ClusterStats
	inproc      time.Duration
	exited      <-chan workerExit
}

// workerExit is how long a run's workers took to exit after Run returned,
// and the first error any of them returned.
type workerExit struct {
	linger time.Duration
	err    error
}

// pendingExit is a measured run whose workers may still be exiting.
type pendingExit struct {
	exited <-chan workerExit
	passed bool // the run's answer was correct
}

func runClusterK2(cfg config) (*report, error) {
	rep := newReport()
	insts, setupS, err := timedSetup(func() ([]instance, error) { return clusterInputs(cfg.seed), nil }, nil)
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS
	rep.layer["gen.build_s"] = setupS
	maxCard := make([]int64, len(insts))
	for i, in := range insts {
		if maxCard[i], err = maximum(in.name, in.g); err != nil {
			return nil, err
		}
	}
	check := func(i int, m *matching.Matching, err error) error {
		in := insts[i]
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		if m.Cardinality() != maxCard[i] {
			return wrongf("%s: cardinality %d, maximum %d", in.name, m.Cardinality(), maxCard[i])
		}
		if err := graftmatch.VerifyMaximum(in.g, m.MateX, m.MateY); err != nil {
			return wrongf("%s: %v", in.name, err)
		}
		return nil
	}

	// Warm-up: one untimed run of the first pair. Every run checks the
	// properties its input was chosen for.
	for i := 0; i < 2; i++ {
		cr, m, err := clusterOnce(insts[i].g, nil, 0)
		if err == nil {
			err = checkClusterInput(insts[i].name, cr.stats)
		}
		if err := check(i, m, err); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if ex := <-cr.exited; ex.err != nil {
			return nil, fmt.Errorf("warm-up: %w", ex.err)
		}
	}

	// Round r runs one pair of inputs, the next pair every second round, so
	// traced and untraced rounds see every pair; the order within the pair
	// alternates once per pass over the pairs.
	pairs := len(insts) / 2
	var rounds, roundsTraced []float64
	perKind := make([][]float64, 2)
	var layers []clusterRun // per traced round, summed over the pair
	var exits []pendingExit
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start).Seconds() < cfg.seconds; r++ {
		var tr *tracer
		if cfg.trace != nil && r%2 == 0 {
			tr = cfg.trace
		}
		var sum time.Duration
		var lr clusterRun
		pair := (r / 2) % pairs
		for k := 0; k < 2; k++ {
			kind := (k + r/(2*pairs)) % 2
			i := 2*pair + kind
			cr, m, err := clusterOnce(insts[i].g, tr, r)
			if err == nil {
				if perr := checkClusterInput(insts[i].name, cr.stats); perr != nil {
					return nil, perr
				}
			}
			rep.attempted++
			cerr := check(i, m, err)
			if cerr != nil {
				rep.fail(cerr)
			}
			if cr.exited != nil {
				exits = append(exits, pendingExit{cr.exited, cerr == nil})
			}
			sum += cr.total
			perKind[kind] = append(perKind[kind], ms(cr.total))
			if tr == nil {
				continue
			}
			m = matching.New(insts[i].g.NX(), insts[i].g.NY())
			sid := tr.begin("dist.Run "+insts[i].name, "dist", noSpan, r)
			t0 := time.Now()
			dist.Run(insts[i].g, m, dist.Options{Ranks: clusterRanks, Grafting: true})
			lr.inproc += time.Since(t0)
			tr.end(sid)
			rep.attempted++
			if err := check(i, m, nil); err != nil {
				rep.fail(err)
			}
			lr.total += cr.total
			lr.join += cr.join
			lr.stats.Supersteps += cr.stats.Supersteps
			lr.stats.Messages += cr.stats.Messages
			lr.stats.Retransmits += cr.stats.Retransmits
		}
		if tr != nil {
			roundsTraced = append(roundsTraced, ms(sum))
			layers = append(layers, lr)
		} else {
			rounds = append(rounds, ms(sum))
		}
	}
	var lingers []float64
	for _, p := range exits {
		ex := <-p.exited
		lingers = append(lingers, ms(ex.linger))
		if ex.err != nil && p.passed { // a failed run's workers were cancelled
			rep.fail(ex.err)
		}
	}

	t := tailOf(rounds)
	rep.e2e["round_ms_p50"] = median(rounds)
	rep.e2e["round_ms_tail"] = t.Value
	var total float64
	for _, r := range rounds {
		total += r
	}
	rep.e2e["throughput_per_s"] = float64(2*len(rounds)) / (total / 1e3)
	rep.notef("round_ms: a WebLike and a banded input, one %d-rank loopback cluster run each, NewCoordinator to Run returning", clusterRanks)
	rep.notef("round_ms_tail is %s", t)
	for kind, name := range []string{"web-Google", "kkt_power"} {
		xs := perKind[kind]
		rep.notef("cluster_ms_p50 %-10s %10.3f ms   tail %10.3f ms (%s)", name, median(xs), tailOf(xs).Value, tailOf(xs))
	}
	rep.notef("workers exit %.1f ms (median) after Run returns", median(lingers))
	if cfg.trace == nil {
		return rep, nil
	}

	L := rep.layer
	med := func(f func(clusterRun) float64) float64 {
		var xs []float64
		for _, lr := range layers {
			xs = append(xs, f(lr))
		}
		return median(xs)
	}
	L["dist.join_ms"] = med(func(c clusterRun) float64 { return ms(c.join) })
	L["dist.supersteps"] = med(func(c clusterRun) float64 { return float64(c.stats.Supersteps) })
	L["dist.messages"] = med(func(c clusterRun) float64 { return float64(c.stats.Messages) })
	L["dist.retransmits"] = med(func(c clusterRun) float64 { return float64(c.stats.Retransmits) })
	L["dist.us_per_superstep"] = med(func(c clusterRun) float64 {
		return float64((c.total - c.join).Nanoseconds()) / 1e3 / float64(c.stats.Supersteps)
	})
	L["dist.inproc_ms"] = med(func(c clusterRun) float64 { return ms(c.inproc) })
	L["dist.exit_ms"] = median(lingers)
	traced, untraced := median(roundsTraced), median(rounds)
	overhead := 100 * (traced - untraced) / untraced
	L["trace.overhead_pct"] = overhead
	rep.notef("traced round %.3f ms against untraced %.3f ms", traced, untraced)
	return rep, checkSelfTimes(rep, cfg.trace, overhead)
}

// checkClusterInput asserts the regime each input was chosen for.
func checkClusterInput(name string, st dist.ClusterStats) error {
	switch {
	case strings.HasPrefix(name, "kkt_power"): // latency-bound: thousands of small supersteps
		if st.Supersteps < 2000 {
			return fmt.Errorf("property: %s took %d supersteps, want >= 2000", name, st.Supersteps)
		}
	case strings.HasPrefix(name, "web-Google"): // volume-bound: few supersteps, many messages
		if st.Supersteps > 1500 || st.Messages < 300_000 {
			return fmt.Errorf("property: %s took %d supersteps and %d messages, want <= 1500 and >= 300000", name, st.Supersteps, st.Messages)
		}
	}
	return nil
}

// clusterOnce runs a coordinator and clusterRanks goroutine workers over
// loopback TCP from the empty matching. It returns when Run does; the
// workers are waited for, and the coordinator closed, on a goroutine that
// reports on exited. A non-nil tracer records the run as a root span split
// into join and supersteps, and the workers' exit as a span of its own.
func clusterOnce(g *graftmatch.Graph, tr *tracer, r int) (clusterRun, *matching.Matching, error) {
	var cr clusterRun
	m := matching.New(g.NX(), g.NY())
	settle()
	t0 := time.Now()
	c, err := dist.NewCoordinator(g, "127.0.0.1:0", dist.ClusterOptions{Ranks: clusterRanks, Grafting: true, Heartbeat: clusterHeartbeat})
	if err != nil {
		return cr, m, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), clusterTimeout)

	var mu sync.Mutex
	var joined int
	var tJoin time.Time
	errs := make(chan error, clusterRanks)
	var wg sync.WaitGroup
	for i := 0; i < clusterRanks; i++ {
		attached := false
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- dist.RunWorker(ctx, dist.WorkerOptions{Addr: c.Addr(), Rank: -1, G: g, OnAttach: func(int) {
				mu.Lock()
				defer mu.Unlock()
				if !attached { // later calls are reconnects
					attached = true
					if joined++; joined == clusterRanks {
						tJoin = time.Now()
					}
				}
			}})
		}()
	}
	st, runErr := c.Run(ctx, m)
	tRun := time.Now()
	if runErr != nil {
		cancel()
	}

	exited := make(chan workerExit, 1)
	cr.exited = exited
	go func() {
		defer cancel()
		wg.Wait()
		ex := workerExit{linger: time.Since(tRun)}
		close(errs)
		for e := range errs {
			if e != nil && ex.err == nil {
				ex.err = fmt.Errorf("worker: %w", e)
			}
		}
		if err := c.Close(); err != nil && ex.err == nil {
			ex.err = fmt.Errorf("close coordinator: %w", err)
		}
		tr.record("worker exit", "dist", noSpan, r, tRun, tRun.Add(ex.linger))
		exited <- ex
	}()

	cr.stats = st
	cr.total = tRun.Sub(t0)
	mu.Lock()
	if !tJoin.IsZero() {
		cr.join = tJoin.Sub(t0)
	}
	mu.Unlock()
	if tr != nil {
		root := tr.record("cluster run", rootLayer, noSpan, r, t0, tRun)
		tr.record("join", "dist/net", root, r, t0, t0.Add(cr.join))
		tr.record("supersteps", "dist", root, r, t0.Add(cr.join), tRun)
	}
	if runErr != nil {
		return cr, m, fmt.Errorf("cluster run: %w", runErr)
	}
	if !st.Complete {
		return cr, m, fmt.Errorf("cluster run incomplete")
	}
	return cr, m, nil
}
