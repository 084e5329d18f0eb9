package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"graftmatch"
	"graftmatch/internal/serve"
)

// The matchd-mix traffic, drawn in shuffled decks of ten: six hits on a few
// hot keys (a small answer from the cache), three misses with a fresh seed
// (computed, and growing the cache past its random-eviction bound, which
// now and then evicts a hot key), and one mates request (a hot key on the
// mesh with its ~2 MB of mate arrays). Misses cycle through every skewed
// input × engine in a shuffled order. Fixed proportions keep the cost of a
// stretch of traffic from depending on the seed; the seed sets the order.
const (
	deckHits, deckMisses, deckMates = 6, 3, 1

	// openRate is the open loop's fixed arrival rate: well under what two
	// cores serve, so latency measures service and not a growing backlog.
	openRate = 25.0
	// maxOutstanding bounds open-loop requests in flight; when it is
	// reached the generator waits, and that wait shows in gen_lag and in
	// latency, which runs from each request's due time.
	maxOutstanding = 64
	closedClients  = 2
)

var (
	hotKeys     = []string{"RMAT", "wikipedia", "cit-patents"}
	missEngines = []string{"msbfsgraft", "pf", "pr"}
)

// mix deals the request sequence from the workload seed.
type mix struct {
	mu     sync.Mutex
	rng    *rand.Rand
	skewed []string
	deck   []string // kinds left in the current deck
	combos []int    // miss (input, engine) pairs left in the current cycle
	hits   int
	misses int64
}

type request struct {
	kind, instance string
	body           []byte
}

func (m *mix) next() request {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.deck) == 0 {
		var deck []string
		for _, k := range []struct {
			kind string
			n    int
		}{{"hit", deckHits}, {"miss", deckMisses}, {"mates", deckMates}} {
			for i := 0; i < k.n; i++ {
				deck = append(deck, k.kind)
			}
		}
		m.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		m.deck = deck
	}
	kind := m.deck[0]
	m.deck = m.deck[1:]
	var r serve.Request
	switch kind {
	case "hit":
		r = serve.Request{Instance: hotKeys[m.hits%len(hotKeys)], Initializer: "greedy"}
		m.hits++
	case "miss":
		if len(m.combos) == 0 {
			m.combos = m.rng.Perm(len(m.skewed) * len(missEngines))
		}
		c := m.combos[0]
		m.combos = m.combos[1:]
		m.misses++
		r = serve.Request{
			Instance:    m.skewed[c%len(m.skewed)],
			Algorithm:   missEngines[c/len(m.skewed)],
			Initializer: "greedy",
			Seed:        m.misses, // never asked before: a cache miss
		}
	default:
		r = matesRequest
	}
	body, _ := json.Marshal(&r) // a plain struct always encodes
	return request{kind: kind, instance: r.Instance, body: body}
}

// matesRequest is the mates hot key. Greedy matches the mesh perfectly, so
// recomputing it after an eviction is cheap and the request's cost is the
// encoding and transfer of its mate arrays.
var matesRequest = serve.Request{Instance: "mesh", Initializer: "greedy", Mates: true}

// matchd is one set-up daemon: registry, server and loopback listener.
type matchd struct {
	srv         *serve.Server
	hs          *http.Server
	url         string
	served      chan error
	genS, loadS float64
	graphs      map[string]*graftmatch.Graph
	skewedNames []string
}

func startMatchd(seed int64, dir string) (*matchd, error) {
	t0 := time.Now()
	mesh := meshInput(seed, 0)
	mesh.name = "mesh"
	insts := append(skewedInputs(seed), mesh)
	d := &matchd{genS: time.Since(t0).Seconds(), graphs: make(map[string]*graftmatch.Graph)}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, in := range insts {
		if err := graftmatch.WriteGraphFile(filepath.Join(dir, in.name+".mtx"), in.g); err != nil {
			return nil, fmt.Errorf("write registry: %w", err)
		}
		if in.name != "mesh" {
			d.skewedNames = append(d.skewedNames, in.name)
		}
	}
	t1 := time.Now()
	reg, err := serve.LoadRegistry(dir)
	if err != nil {
		return nil, err
	}
	d.loadS = time.Since(t1).Seconds()
	for _, name := range reg.Names() {
		ins, _ := reg.Get(name)
		d.graphs[name] = ins.Graph
	}
	if d.srv, err = serve.NewServer(serve.Config{Registry: reg}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.hs = serve.NewHTTPServer(ln.Addr().String(), d.srv.Handler())
	d.url = "http://" + ln.Addr().String() + "/match"
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener, waits for the serve loop to return, and drains
// the server.
func (d *matchd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// outcome is one answered request as the client saw it.
type outcome struct {
	latency time.Duration
	status  int
	body    []byte
	err     error
}

// matchdStats collects what the per-layer metrics need from every answer.
type matchdStats struct {
	mu                  sync.Mutex
	responses, cacheHit int64
	respBytes           int64
	shed, degraded      int64
	computedMS          []float64
	matesChecked        bool
}

func runMatchdMix(cfg config) (*report, error) {
	rep := newReport()
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("registry-%d", cfg.seed))
	var gens, loads []float64
	d, setupS, err := timedSetup(func() (*matchd, error) {
		d, err := startMatchd(cfg.seed, dir)
		if err == nil {
			gens, loads = append(gens, d.genS), append(loads, d.loadS)
		}
		return d, err
	}, func(d *matchd) {
		if err := d.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: stop matchd: %v\n", err)
		}
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := d.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: stop matchd: %v\n", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: remove registry: %v\n", err)
		}
	}()
	rep.e2e["setup_s"] = setupS
	rep.layer["gen.build_s"] = median(gens)
	rep.layer["mmio.load_s"] = median(loads)

	// The maximum of every instance, proved at set-up; each answer must
	// match it.
	maxCard := make(map[string]int64)
	for name, g := range d.graphs {
		if maxCard[name], err = maximum(name, g); err != nil {
			return nil, err
		}
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: maxOutstanding,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()
	mx := &mix{rng: rand.New(rand.NewSource(cfg.seed)), skewed: d.skewedNames}
	tr := cfg.trace

	// Warm-up: every hot key once, so hits start hot.
	warm := &matchdStats{}
	for _, k := range append(append([]string(nil), hotKeys...), "mesh") {
		r := serve.Request{Instance: k, Initializer: "greedy"}
		if k == "mesh" {
			r = matesRequest
		}
		body, _ := json.Marshal(&r)
		req := request{kind: "warm", instance: k, body: body}
		o := send(client, d.url, req, time.Now(), nil, 0)
		if err := warm.check(req, o, d.graphs, maxCard); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	st := &matchdStats{}
	check := func(req request, o outcome) {
		rep.attempted++
		if err := st.check(req, o, d.graphs, maxCard); err != nil {
			rep.fail(err)
		}
	}

	openShare, closedShare := 0.6, 0.4
	if tr != nil {
		openShare, closedShare = 0.45, 0.3
	}

	// Open loop: requests fall due at a fixed rate whatever the server does.
	var mu sync.Mutex
	var lat, lags []float64
	byKind := make(map[string][]float64)
	var hitsTraced []float64
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxOutstanding)
	n := max(minRounds, int(openRate*openShare*cfg.seconds))
	t0 := time.Now().Add(10 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(float64(i) / openRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		req := mx.next()
		sem <- struct{}{}
		lag := time.Since(due)
		traced := tr != nil && i%2 == 0
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			var t *tracer
			if traced {
				t = tr
			}
			o := send(client, d.url, req, due, t, i)
			mu.Lock()
			defer mu.Unlock()
			check(req, o)
			lags = append(lags, ms(lag))
			if o.err == nil && o.status == http.StatusOK {
				if traced {
					if req.kind == "hit" {
						hitsTraced = append(hitsTraced, ms(o.latency))
					}
				} else {
					lat = append(lat, ms(o.latency))
					byKind[req.kind] = append(byKind[req.kind], ms(o.latency))
				}
			}
		}(i)
	}
	wg.Wait()

	// Closed loop: each client sends its next request when the last one is
	// answered.
	var done int64
	closedStart := time.Now()
	closedEnd := closedStart.Add(time.Duration(closedShare * cfg.seconds * float64(time.Second)))
	for c := 0; c < closedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(closedEnd) {
				req := mx.next()
				o := send(client, d.url, req, time.Now(), nil, 0)
				mu.Lock()
				check(req, o)
				done++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	closedS := time.Since(closedStart).Seconds()

	if !st.matesChecked {
		rep.fail(errors.New("no mates answer was proved maximum"))
	}
	t := tailOf(lat)
	rep.e2e["round_ms_p50"] = median(lat)
	rep.e2e["round_ms_tail"] = t.Value
	rep.e2e["throughput_per_s"] = float64(done) / closedS
	rep.notef("round_ms: one open-loop request at %.0f/s, from when it was due to its last response byte", openRate)
	rep.notef("round_ms_tail is %s", t)
	for _, k := range []string{"hit", "miss", "mates"} {
		xs := byKind[k]
		rep.notef("req_ms_p50 %-5s %10.3f ms   tail %10.3f ms (%s)", k, median(xs), tailOf(xs).Value, tailOf(xs))
	}
	rep.notef("req_per_s: %d closed-loop clients answered %d requests in %.2f s", closedClients, done, closedS)

	L := rep.layer
	if st.responses > 0 {
		L["serve.cache_hit_ratio"] = float64(st.cacheHit) / float64(st.responses)
		L["serve.resp_kb"] = float64(st.respBytes) / float64(st.responses) / 1024
	}
	L["serve.engine_ms_p50"] = median(st.computedMS)
	L["serve.shed"] = float64(st.shed)
	L["serve.degraded"] = float64(st.degraded)
	L["bench.gen_lag_ms"] = tailOf(lags).Value
	if tr != nil {
		handlerS := cfg.seconds * (1 - openShare - closedShare)
		if err := handlerPass(rep, tr, d, mx, handlerS, check); err != nil {
			return nil, err
		}
		// Hits alone: a median over a mix of kinds moves with the mix.
		traced, untraced := median(hitsTraced), median(byKind["hit"])
		overhead := 100 * (traced - untraced) / untraced
		L["trace.overhead_pct"] = overhead
		rep.notef("traced hit %.3f ms against untraced %.3f ms", traced, untraced)
		if err := checkSelfTimes(rep, tr, overhead); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// send posts one request and reads the whole answer. Latency runs from due,
// when the request should have left, to the last response byte. A non-nil
// tracer records the request as a root span from due with a child span for
// the HTTP exchange, so the root's self time is the generator's lag.
func send(client *http.Client, url string, req request, due time.Time, tr *tracer, r int) outcome {
	var o outcome
	sent := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(req.body))
	if err == nil {
		o.status = resp.StatusCode
		o.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	o.latency, o.err = end.Sub(due), err
	if tr != nil {
		root := tr.record("request "+req.kind, rootLayer, noSpan, r, due, end)
		tr.record("POST /match", "serve", root, r, sent, end)
	}
	return o
}

// check decides whether one answer is a correct maximum matching.
func (st *matchdStats) check(req request, o outcome, graphs map[string]*graftmatch.Graph, maxCard map[string]int64) error {
	if o.err != nil {
		return fmt.Errorf("%s %s: %w", req.kind, req.instance, o.err)
	}
	if o.status == http.StatusTooManyRequests {
		st.mu.Lock()
		st.shed++
		st.mu.Unlock()
		return fmt.Errorf("%s %s: shed (429)", req.kind, req.instance)
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", req.kind, req.instance, o.status, o.body)
	}
	var r serve.MatchResponse
	if err := json.Unmarshal(o.body, &r); err != nil {
		return wrongf("%s %s: undecodable answer: %v", req.kind, req.instance, err)
	}
	st.mu.Lock()
	st.responses++
	st.respBytes += int64(len(o.body))
	if r.Source == "cache" || r.Source == "inflight" {
		st.cacheHit++
	}
	if r.Source == "computed" {
		st.computedMS = append(st.computedMS, r.RuntimeMS)
	}
	if r.Degraded {
		st.degraded++
	}
	st.mu.Unlock()
	switch {
	case r.Degraded || !r.Complete:
		return fmt.Errorf("%s %s: degraded or incomplete answer (source %s)", req.kind, req.instance, r.Source)
	case r.Cardinality != maxCard[req.instance]:
		return wrongf("%s %s: cardinality %d, maximum %d", req.kind, req.instance, r.Cardinality, maxCard[req.instance])
	}
	if len(r.MateX) == 0 {
		return nil
	}
	g := graphs[req.instance]
	st.mu.Lock()
	prove := !st.matesChecked
	st.matesChecked = true
	st.mu.Unlock()
	if prove {
		if err := graftmatch.VerifyMaximum(g, r.MateX, r.MateY); err != nil {
			return wrongf("%s %s: mates: %v", req.kind, req.instance, err)
		}
		return nil
	}
	return checkMates(g, r.MateX, r.MateY, r.Cardinality)
}

// checkMates is the linear-time check applied to every mates answer after
// the first, which is proved maximum: the arrays are inverse to each other
// and hold exactly the reported number of pairs.
func checkMates(g *graftmatch.Graph, mateX, mateY []int32, card int64) error {
	if len(mateX) != int(g.NX()) || len(mateY) != int(g.NY()) {
		return wrongf("mates: lengths %d/%d, want %d/%d", len(mateX), len(mateY), g.NX(), g.NY())
	}
	var pairs int64
	for x, y := range mateX {
		if y == graftmatch.Unmatched {
			continue
		}
		if y < 0 || int(y) >= len(mateY) || mateY[y] != int32(x) {
			return wrongf("mates: x %d and y %d disagree", x, y)
		}
		pairs++
	}
	if pairs != card {
		return wrongf("mates: %d pairs, cardinality %d", pairs, card)
	}
	return nil
}

// handlerPass sends the same mix straight into the server's handler, with
// no socket, as a closed loop of one caller, and times DecodeRequest on the
// same bodies. Its median against the socket median is HTTP's share.
func handlerPass(rep *report, tr *tracer, d *matchd, mx *mix, seconds float64, check func(request, outcome)) error {
	h := d.srv.Handler()
	var handler, decode []float64
	var bodies [][]byte
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; time.Now().Before(end); i++ {
		req := mx.next()
		hr := httptest.NewRequest(http.MethodPost, "/match", bytes.NewReader(req.body))
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, hr)
		t1 := time.Now()
		tr.record("handler "+req.kind, "serve", noSpan, i, t0, t1)
		handler = append(handler, ms(t1.Sub(t0)))
		check(req, outcome{latency: t1.Sub(t0), status: w.Code, body: w.Body.Bytes()})
		bodies = append(bodies, req.body)
	}
	for i, b := range bodies {
		t0 := time.Now()
		_, err := serve.DecodeRequest(b, serve.Caps{})
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("decode a request the benchmark built: %w", err)
		}
		tr.record("DecodeRequest", "serve", noSpan, i, t0, t1)
		decode = append(decode, float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
	rep.layer["serve.handler_ms_p50"] = median(handler)
	rep.layer["serve.decode_us"] = median(decode)
	return nil
}
