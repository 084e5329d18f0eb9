package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// noSpan is the parent of a root span.
const noSpan = -1

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Layer names the package the call enters; Round groups the spans
// of one round (or one request) of a workload.
type span struct {
	Name       string
	Layer      string
	Start, End time.Duration // since the tracer's origin
	Parent     int
	Round      int
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id for end and for child spans.
func (t *tracer) begin(name, layer string, parent, round int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, End: -1, Parent: parent, Round: round})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured by the caller.
func (t *tracer) record(name, layer string, parent, round int, start, end time.Time) int {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: start.Sub(t.origin), End: end.Sub(t.origin), Parent: parent, Round: round})
	return len(t.spans) - 1
}

// selfTimes returns each layer's self time over the trees rooted at root
// spans of layer rootLayer: a span's duration minus the part of it its children cover.
// total is the summed duration of those roots; the self times add up to it
// exactly when every child lies inside its parent and siblings do not
// overlap.
func selfTimes(spans []span, rootLayer string) (self map[string]time.Duration, total time.Duration) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self = make(map[string]time.Duration)
	var walk func(i int)
	walk = func(i int) {
		s := spans[i]
		self[s.Layer] += s.End - s.Start - covered(spans, children[i], s.Start, s.End)
		for _, c := range children[i] {
			walk(c)
		}
	}
	for i, s := range spans {
		if s.Parent == noSpan && s.Layer == rootLayer && s.End >= s.Start {
			total += s.End - s.Start
			walk(i)
		}
	}
	return self, total
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end time.Duration
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing, Perfetto):
// one complete event per span, one thread row per round.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		evs = append(evs, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Round,
			Args: map[string]int{"id": i, "parent": s.Parent, "round": s.Round},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// rootLayer is the layer of the spans that stand for one timed unit of work
// (a solve, a request, a cluster run); every other span hangs below one of
// them or is untimed (verification).
const rootLayer = "bench"

// checkSelfTimes prints each layer's self time under the timed root spans
// and fails when those self times do not add up to the roots' total within
// the tracing overhead (at least 1%): the spans would then double-count or
// lose time, and the breakdown could not be trusted.
func checkSelfTimes(rep *report, tr *tracer, overheadPct float64) error {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	self, total := selfTimes(spans, rootLayer)
	var sum time.Duration
	layers := make([]string, 0, len(self))
	for l, d := range self {
		sum += d
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		rep.notef("self time %-12s %12.3f ms  %5.1f%%", l, ms(self[l]), 100*float64(self[l])/float64(total))
	}
	gap := 100 * math.Abs(float64(sum-total)) / float64(total)
	rep.notef("self times add up to %.3f ms of %.3f ms timed (gap %.3f%%, overhead %.2f%%)", ms(sum), ms(total), gap, overheadPct)
	if gap > math.Max(1, math.Abs(overheadPct)) {
		return fmt.Errorf("trace: layer self times miss the timed total by %.2f%%", gap)
	}
	return nil
}
