package dist

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"graftmatch/internal/bipartite"
	"graftmatch/internal/checkpoint"
	distnet "graftmatch/internal/dist/net"
	"graftmatch/internal/gen"
	"graftmatch/internal/hk"
	"graftmatch/internal/matching"
	"graftmatch/internal/matchinit"
	"graftmatch/internal/supervise"
)

// refCardinality is the differential oracle: Hopcroft–Karp's maximum.
func refCardinality(g *bipartite.Graph) int64 {
	m := matching.New(g.NX(), g.NY())
	hk.Run(g, m)
	return m.Cardinality()
}

// testClusterOpts shrinks every failure-detection interval so death and
// recovery fit in test time: 25ms heartbeats, a 200ms lease.
func testClusterOpts() ClusterOptions {
	return ClusterOptions{
		Ranks:            4,
		Grafting:         true,
		Heartbeat:        25 * time.Millisecond,
		HandshakeTimeout: 500 * time.Millisecond,
	}
}

func testWorkerOpts(addr string, rank int, g *bipartite.Graph) WorkerOptions {
	return WorkerOptions{
		Addr:             addr,
		Rank:             rank,
		G:                g,
		HandshakeTimeout: 500 * time.Millisecond,
		JoinWait:         20 * time.Second,
	}
}

// startWorker launches RunWorker on its own goroutine; the error lands in
// errs (never t directly — workers may outlive a failing test body).
func startWorker(ctx context.Context, wg *sync.WaitGroup, errs chan<- error, opts WorkerOptions) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- RunWorker(ctx, opts)
	}()
}

// runCluster drives a full multi-process-shaped run — coordinator plus
// opts.Ranks goroutine workers over real sockets at addr — from an empty
// matching and requires every worker to exit clean.
func runCluster(t *testing.T, g *bipartite.Graph, addr string, opts ClusterOptions) (*matching.Matching, ClusterStats) {
	t.Helper()
	m := matching.New(g.NX(), g.NY())
	return m, runClusterFrom(t, g, addr, opts, m)
}

// runClusterFrom is runCluster starting from (and writing back into) m.
func runClusterFrom(t *testing.T, g *bipartite.Graph, addr string, opts ClusterOptions, m *matching.Matching) ClusterStats {
	t.Helper()
	c, err := NewCoordinator(g, addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, opts.Ranks)
	for i := 0; i < opts.Ranks; i++ {
		startWorker(ctx, &wg, errs, testWorkerOpts(c.Addr(), -1, g))
	}
	s, err := c.Run(ctx, m)
	if err != nil {
		cancel()
		wg.Wait()
		t.Fatalf("cluster run: %v", err)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		if e != nil {
			t.Errorf("worker exited with error: %v", e)
		}
	}
	return s
}

// TestClusterHappyPath: 4 workers over real TCP must reproduce the reference
// maximum and leave a phase-boundary checkpoint at the final cardinality.
func TestClusterHappyPath(t *testing.T) {
	g := gen.ER(400, 400, 1600, 21)
	want := refCardinality(g)
	dir := t.TempDir()
	opts := testClusterOpts()
	opts.CheckpointDir = dir

	m, s := runCluster(t, g, "127.0.0.1:0", opts)
	if err := matching.VerifyMaximum(g, m); err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != want {
		t.Fatalf("cardinality %d, want %d", m.Cardinality(), want)
	}
	if !s.Complete || s.Phases == 0 || s.Supersteps == 0 || s.Messages == 0 {
		t.Fatalf("implausible stats: %+v", s)
	}
	if s.Ranks != 4 {
		t.Fatalf("ranks %d, want 4", s.Ranks)
	}
	snap, _, err := checkpoint.LoadLatest(dir, checkpoint.GraphFingerprint(g))
	if err != nil {
		t.Fatalf("no checkpoint after run: %v", err)
	}
	if snap.Cardinality != want {
		t.Fatalf("checkpoint cardinality %d, want %d", snap.Cardinality, want)
	}
}

// TestClusterUnixSocket: the same protocol must run over unix domain sockets
// (the Network address heuristic picks them for path-shaped addrs).
func TestClusterUnixSocket(t *testing.T) {
	g := gen.ER(150, 150, 600, 3)
	want := refCardinality(g)
	opts := testClusterOpts()
	opts.Ranks = 2
	m, _ := runCluster(t, g, filepath.Join(t.TempDir(), "graft.sock"), opts)
	if m.Cardinality() != want {
		t.Fatalf("cardinality %d, want %d", m.Cardinality(), want)
	}
}

// TestClusterKillRespawnRecovers is the headline fault drill: a rank dies
// mid-run (its process context is cut with no farewell), the coordinator
// detects the death by heartbeat silence, respawns the rank, rolls every
// rank back to the last phase-boundary matching, and still finishes with a
// verified maximum matching at the reference cardinality.
func TestClusterKillRespawnRecovers(t *testing.T) {
	g := gen.ER(500, 500, 1500, 33)
	want := refCardinality(g)
	const victim = 2

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	var addr string
	opts := testClusterOpts()
	opts.Respawn = func(rank int) error {
		startWorker(ctx, &wg, errs, testWorkerOpts(addr, rank, g))
		return nil
	}
	var killOnce sync.Once
	opts.OnPhase = func(phase, card int64) {
		killOnce.Do(killVictim)
	}

	c, err := NewCoordinator(g, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr = c.Addr()
	for i := 0; i < 4; i++ {
		wctx := ctx
		if i == victim {
			wctx = victimCtx
		}
		startWorker(wctx, &wg, errs, testWorkerOpts(addr, i, g))
	}

	m := matching.New(g.NX(), g.NY())
	s, err := c.Run(ctx, m)
	if err != nil {
		cancel()
		wg.Wait()
		t.Fatalf("cluster run: %v", err)
	}
	wg.Wait()
	close(errs)
	var failed int
	for e := range errs {
		if e != nil {
			failed++
		}
	}

	if failed != 1 {
		t.Errorf("%d workers exited with errors, want exactly the killed one", failed)
	}
	if s.RankDeaths != 1 || s.Recoveries != 1 {
		t.Errorf("deaths=%d recoveries=%d, want 1 and 1", s.RankDeaths, s.Recoveries)
	}
	if s.RecoveryTime <= 0 {
		t.Errorf("recovery time not recorded: %v", s.RecoveryTime)
	}
	if s.Phases < 2 {
		t.Fatalf("run finished in %d phases — the kill never hit a live run", s.Phases)
	}
	if err := matching.VerifyMaximum(g, m); err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != want {
		t.Fatalf("cardinality %d, want %d", m.Cardinality(), want)
	}
}

// TestClusterTransientRetryCompletes: a rank that dies with no replacement
// fails the run with a transient error — the rank's *PeerDownError stays in
// the chain — and leaves a valid partial matching in m. supervise.Retry then
// reruns on a fresh, healthy cluster seeded from m, which must reach the
// reference maximum.
func TestClusterTransientRetryCompletes(t *testing.T) {
	g := gen.ER(500, 500, 1500, 33)
	want := refCardinality(g)
	m := matchinit.Greedy(g)
	initial := m.Cardinality()

	attempts := 0
	err := supervise.Retry(context.Background(), supervise.Backoff{Attempts: 1, Base: time.Millisecond},
		func(ctx context.Context) error {
			attempts++
			if attempts > 1 {
				runClusterFrom(t, g, "127.0.0.1:0", testClusterOpts(), m)
				return nil
			}
			_, err := runClusterLosingRank(t, g, m)
			checkLostRun(t, g, m, initial, err)
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 1 failure + 1 success", attempts)
	}
	if err := matching.VerifyMaximum(g, m); err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != want {
		t.Fatalf("cardinality %d, want %d", m.Cardinality(), want)
	}
}

// checkLostRun asserts what a run that lost a rank for good must leave
// behind: a transient error with the rank's *PeerDownError in the chain,
// and a valid matching in m no smaller than the one the run started from.
func checkLostRun(t *testing.T, g *bipartite.Graph, m *matching.Matching, initial int64, err error) {
	t.Helper()
	var pd *distnet.PeerDownError
	if !errors.As(err, &pd) || !supervise.IsTransient(err) {
		t.Fatalf("lost rank: got %v, want a transient error wrapping *PeerDownError", err)
	}
	if verr := m.Verify(g); verr != nil {
		t.Fatalf("partial matching after the lost rank is invalid: %v", verr)
	}
	if m.Cardinality() < initial {
		t.Fatalf("lost rank dropped matched edges: %d < initial %d", m.Cardinality(), initial)
	}
}

// TestTransientFailureSurfaces: a rank lost with no replacement must abort
// the run with a typed, transient-marked error, count the one death, and
// leave a valid (partial) matching — never a torn mid-augmentation state.
func TestTransientFailureSurfaces(t *testing.T) {
	g := gen.ER(300, 300, 1000, 9)
	m := matchinit.Greedy(g)
	initial := m.Cardinality()
	s, err := runClusterLosingRank(t, g, m)
	checkLostRun(t, g, m, initial, err)
	if s.RankDeaths != 1 {
		t.Fatalf("deaths=%d, want the one killed rank", s.RankDeaths)
	}
}

// TestTransientRetryCompletes drives cluster runs under supervise.Retry:
// the first two attempts each lose a rank for good, every failed attempt
// hands the next one a matching no smaller than its own start, and the
// third attempt — a healthy cluster — must converge to the same maximum
// cardinality as a clean solver.
func TestTransientRetryCompletes(t *testing.T) {
	g := gen.ER(300, 300, 1000, 9)
	want := refCardinality(g)
	m := matchinit.Greedy(g)

	attempts := 0
	err := supervise.Retry(context.Background(), supervise.Backoff{Attempts: 5, Base: time.Millisecond},
		func(ctx context.Context) error {
			attempts++
			if attempts > 2 {
				runClusterFrom(t, g, "127.0.0.1:0", testClusterOpts(), m)
				return nil
			}
			start := m.Cardinality()
			_, err := runClusterLosingRank(t, g, m)
			checkLostRun(t, g, m, start, err)
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 2 outages + 1 success", attempts)
	}
	if err := matching.VerifyMaximum(g, m); err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != want {
		t.Fatalf("cardinality %d, want %d", m.Cardinality(), want)
	}
}

// runClusterLosingRank runs a 4-rank cluster from m whose rank 2 is killed
// after the first phase and never replaced, and returns what Run returns.
func runClusterLosingRank(t *testing.T, g *bipartite.Graph, m *matching.Matching) (ClusterStats, error) {
	t.Helper()
	const victim = 2
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()

	opts := testClusterOpts()
	opts.RejoinWait = 2 * time.Second // bounds both the first join and the wait for a replacement
	var killOnce sync.Once
	opts.OnPhase = func(phase, card int64) {
		killOnce.Do(killVictim)
	}
	c, err := NewCoordinator(g, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, opts.Ranks)
	for i := 0; i < opts.Ranks; i++ {
		wctx := ctx
		if i == victim {
			wctx = victimCtx
		}
		startWorker(wctx, &wg, errs, testWorkerOpts(c.Addr(), i, g))
	}
	s, err := c.Run(ctx, m)
	cancel() // the survivors' errors are the lost run's, not the test's
	wg.Wait()
	return s, err
}

// TestNextBackoffJitteredAndCapped: the schedule a worker builds from
// WorkerOptions.RTO for its join and redial retries must draw each wait from
// the jitter window [d/2, d], double d up to the configured cap and no
// further, and replay identically for an equal seed.
func TestNextBackoffJitteredAndCapped(t *testing.T) {
	opts := WorkerOptions{RTO: distnet.BackoffConfig{Base: 4 * time.Millisecond, Max: 64 * time.Millisecond, Seed: 99}}
	bo := opts.RTO.New()
	d := opts.RTO.Base
	for step := 0; step < 20; step++ {
		if wait := bo.Next(); wait < d/2 || wait > d {
			t.Fatalf("step %d: wait %v outside jitter window [%v, %v]", step, wait, d/2, d)
		}
		d = min(2*d, opts.RTO.Max)
	}

	// Same seed, same schedule.
	a, b := opts.RTO.New(), opts.RTO.New()
	for step := 0; step < 50; step++ {
		if wa, wb := a.Next(), b.Next(); wa != wb {
			t.Fatalf("step %d: equal seeds diverged: %v vs %v", step, wa, wb)
		}
	}
}

// TestWorkersReturnPromptlyAfterRun: once the coordinator broadcasts Done,
// every worker must return within one heartbeat — its heartbeat, watchdog
// and redial goroutines stop with the run instead of idling until the lease
// expires.
func TestWorkersReturnPromptlyAfterRun(t *testing.T) {
	g := gen.ER(200, 200, 800, 5)
	opts := testClusterOpts()
	opts.Ranks = 2
	opts.Heartbeat = 100 * time.Millisecond
	opts.Lease = time.Second
	c, err := NewCoordinator(g, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	type exit struct {
		at  time.Time
		err error
	}
	exits := make(chan exit, opts.Ranks)
	for i := 0; i < opts.Ranks; i++ {
		go func() {
			err := RunWorker(ctx, testWorkerOpts(c.Addr(), -1, g))
			exits <- exit{time.Now(), err}
		}()
	}
	_, err = c.Run(ctx, matching.New(g.NX(), g.NY()))
	runDone := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < opts.Ranks; i++ {
		e := <-exits
		if e.err != nil {
			t.Errorf("worker exited with error: %v", e.err)
		}
		if lag := e.at.Sub(runDone); lag > opts.Heartbeat {
			t.Errorf("worker returned %v after Run, want within one heartbeat (%v)", lag, opts.Heartbeat)
		}
	}
}

// TestClusterChaosConverges: with every worker connected through a chaos
// proxy injecting frame drops, duplication, and latency, the session layer's
// retransmit/ack protocol must still deliver a verified maximum matching.
func TestClusterChaosConverges(t *testing.T) {
	g := gen.ER(250, 250, 1000, 5)
	want := refCardinality(g)
	opts := testClusterOpts()
	// Retransmit bursts behind the proxy's serialized per-frame latency can
	// starve heartbeats for stretches, so the lease is generous here — and a
	// Respawn handler stands by in case congestion still earns a rank a
	// (spurious but legitimate) death sentence.
	opts.Lease = time.Second
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var proxyAddr string
	opts.Respawn = func(rank int) error {
		startWorker(ctx, &wg, errs, testWorkerOpts(proxyAddr, rank, g))
		return nil
	}
	c, err := NewCoordinator(g, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	proxy, err := distnet.NewProxy(c.Addr(), distnet.Chaos{
		Seed:      9,
		Drop:      0.08,
		Duplicate: 0.08,
		Latency:   2 * time.Millisecond,
		Jitter:    3 * time.Millisecond,
	}, distnet.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxyAddr = proxy.Addr()

	for i := 0; i < 4; i++ {
		startWorker(ctx, &wg, errs, testWorkerOpts(proxyAddr, -1, g))
	}
	m := matching.New(g.NX(), g.NY())
	s, err := c.Run(ctx, m)
	if err != nil {
		cancel()
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Logf("worker error: %v", e)
		}
		t.Fatalf("cluster run under chaos: %v", err)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		if e == nil {
			continue
		}
		// A worker whose own lease expired during a congestion burst is the
		// failure detector working as designed, not a test failure.
		var pd *distnet.PeerDownError
		if !errors.As(e, &pd) {
			t.Errorf("worker exited with error: %v", e)
		}
	}

	if err := matching.VerifyMaximum(g, m); err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != want {
		t.Fatalf("cardinality %d, want %d", m.Cardinality(), want)
	}
	ps := proxy.Stats()
	if ps.Dropped == 0 || ps.Duplicated == 0 {
		t.Errorf("chaos not exercised: %+v", ps)
	}
	if s.Retransmits == 0 {
		t.Errorf("drops without retransmits: %+v", ps)
	}
}

// TestClusterSplitBrainMinorityAborts (the partition drill): a network
// partition isolates one rank of four. The minority side's lease expires and
// it aborts with a typed *net.PeerDownError rather than computing on; the
// majority side declares the rank dead, respawns it on the healed network,
// and completes a verified maximum matching — so no two processes ever both
// act as the same rank.
func TestClusterSplitBrainMinorityAborts(t *testing.T) {
	g := gen.ER(400, 400, 1200, 17)
	want := refCardinality(g)
	const victim = 3

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	var addr string
	var proxy *distnet.Proxy
	var partOnce sync.Once
	opts := testClusterOpts()
	opts.Respawn = func(rank int) error {
		startWorker(ctx, &wg, errs, testWorkerOpts(addr, rank, g))
		return nil
	}
	opts.OnPhase = func(phase, card int64) {
		partOnce.Do(func() { proxy.SetPartition(true) })
	}

	c, err := NewCoordinator(g, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr = c.Addr()
	proxy, err = distnet.NewProxy(addr, distnet.Chaos{}, distnet.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	for i := 0; i < 4; i++ {
		waddr := addr
		if i == victim {
			waddr = proxy.Addr()
		}
		startWorker(ctx, &wg, errs, testWorkerOpts(waddr, i, g))
	}

	m := matching.New(g.NX(), g.NY())
	s, err := c.Run(ctx, m)
	if err != nil {
		cancel()
		wg.Wait()
		t.Fatalf("cluster run across partition: %v", err)
	}
	wg.Wait()
	close(errs)
	var aborted, other int
	for e := range errs {
		if e == nil {
			continue
		}
		var pd *distnet.PeerDownError
		if errors.As(e, &pd) {
			aborted++
		} else {
			other++
			t.Errorf("unexpected worker error: %v", e)
		}
	}

	if aborted != 1 {
		t.Errorf("%d minority aborts, want exactly 1 (the partitioned rank)", aborted)
	}
	if s.RankDeaths < 1 || s.Recoveries < 1 {
		t.Errorf("majority never recovered the partitioned rank: %+v", s)
	}
	if s.Phases < 2 {
		t.Fatalf("run finished in %d phases — the partition never hit a live run", s.Phases)
	}
	if err := matching.VerifyMaximum(g, m); err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != want {
		t.Fatalf("cardinality %d, want %d", m.Cardinality(), want)
	}
}

// TestClusterCheckpointResume: a second run over the same checkpoint
// directory must pick up the saved matching instead of starting over — one
// phase to confirm maximality and done.
func TestClusterCheckpointResume(t *testing.T) {
	g := gen.ER(300, 300, 1200, 7)
	want := refCardinality(g)
	dir := t.TempDir()
	opts := testClusterOpts()
	opts.Ranks = 2
	opts.CheckpointDir = dir

	_, s1 := runCluster(t, g, "127.0.0.1:0", opts)
	m2, s2 := runCluster(t, g, "127.0.0.1:0", opts)

	if m2.Cardinality() != want {
		t.Fatalf("resumed cardinality %d, want %d", m2.Cardinality(), want)
	}
	if s2.InitialCardinality != 0 {
		t.Fatalf("resume test needs an empty starting matching, got %d", s2.InitialCardinality)
	}
	if s1.Phases < 2 {
		t.Skipf("first run converged in %d phases; resume adds nothing to check", s1.Phases)
	}
	if s2.Phases != 1 {
		t.Errorf("resumed run took %d phases, want 1 (checkpoint already maximum)", s2.Phases)
	}
}

// TestClosedCounterFoldIsLocked pins a race fix at its call site:
// recoverRank used to fold a retired session's counters into the slot after
// releasing s.mu, racing the handshake path and the stats exporter, which
// both treat closedRetrans and closedAttach as lock-guarded state. The test
// drives the real recoverRank, with a Respawn that re-installs a session
// under s.mu as the handshake does, while a second goroutine runs the real
// exporter, so `go test -race` fails if the fold leaves the critical section.
func TestClosedCounterFoldIsLocked(t *testing.T) {
	c := &Coordinator{
		slots: []*slot{{rank: 0, frames: make(chan stepDoneFrame, 1)}},
		mon:   distnet.NewMonitor(time.Millisecond, 8),
		opts:  ClusterOptions{RejoinWait: time.Second, Heartbeat: time.Millisecond},
	}
	s := c.slots[0]
	c.opts.Respawn = func(int) error {
		s.mu.Lock()
		s.sess = distnet.NewSession(distnet.SessionConfig{})
		s.alive = true
		s.mu.Unlock()
		return nil
	}
	if err := c.opts.Respawn(0); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				c.exportSessionStats()
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if err := c.recoverRank(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	s.mu.Lock()
	_ = s.sess.Close()
	s.mu.Unlock()
	if c.stats.RankDeaths != 200 {
		t.Fatalf("RankDeaths = %d, want 200", c.stats.RankDeaths)
	}
	if c.stats.Attaches != 0 || c.stats.Retransmits != 0 {
		t.Fatalf("idle sessions exported attaches=%d retransmits=%d, want 0",
			c.stats.Attaches, c.stats.Retransmits)
	}
}
