// Command perfbench is graftmatch's end-to-end benchmark. One run sets up one
// workload from a seed, measures it for a fixed time, checks every answer,
// and prints one JSON result as the last line of standard output:
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics, taken from spans the benchmark records around
// its calls into each layer, and a Chrome trace of those spans is written to
// the work directory. -workload all runs every workload in turn, each in its
// own process. "perfbench compare" compares two result sets (compare.go).
// BENCHMARK.md in this directory documents the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its timed set-up; setup_s is the
// median.
const setupReps = 3

// minRounds is the fewest rounds (or open-loop requests) a run measures
// however short its time, so that a traced run has traced and untraced
// rounds to compare.
const minRounds = 2

// endToEnd and perLayer are every metric the benchmark reports, in the order
// BENCHMARK.json lists them. Every workload reports the whole end-to-end set,
// and every traced run the whole per-layer set: a layer a workload does not
// run reads 0 there.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"round_ms_p50", "ms", "lower"},
	{"round_ms_tail", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
}

var perLayer = []metricDef{
	{"core.topdown_ms", "ms", "lower"},
	{"core.bottomup_ms", "ms", "lower"},
	{"core.augment_ms", "ms", "lower"},
	{"core.graft_ms", "ms", "lower"},
	{"core.statistics_ms", "ms", "lower"},
	{"core.phases", "count", "lower"},
	{"core.edges", "count", "lower"},
	{"core.td_levels", "count", "lower"},
	{"core.bu_levels", "count", "lower"},
	{"core.alloc_mb", "MB", "lower"},
	{"par.graft_p1_ms", "ms", "lower"},
	{"par.graft_speedup_p2", "ratio", "higher"},
	{"pf.engine_ms", "ms", "lower"},
	{"pf.phases", "count", "lower"},
	{"pf.edges", "count", "lower"},
	{"pf.alloc_mb", "MB", "lower"},
	{"pushrelabel.engine_ms", "ms", "lower"},
	{"pushrelabel.relabels", "count", "lower"},
	{"pushrelabel.edges", "count", "lower"},
	{"pushrelabel.alloc_mb", "MB", "lower"},
	{"matchinit.ms", "ms", "lower"},
	{"matchinit.unmatched", "count", "lower"},
	{"matching.verify_ms", "ms", "lower"},
	{"serve.handler_ms_p50", "ms", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.engine_ms_p50", "ms", "lower"},
	{"serve.resp_kb", "KB", "lower"},
	{"serve.decode_us", "us", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.degraded", "count", "lower"},
	{"bench.gen_lag_ms", "ms", "lower"},
	{"bench.error_rate", "ratio", "lower"},
	{"dist.join_ms", "ms", "lower"},
	{"dist.supersteps", "count", "lower"},
	{"dist.messages", "count", "lower"},
	{"dist.retransmits", "count", "lower"},
	{"dist.us_per_superstep", "us", "lower"},
	{"dist.inproc_ms", "ms", "lower"},
	{"dist.exit_ms", "ms", "lower"},
	{"gen.build_s", "s", "lower"},
	{"mmio.load_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	trace   *tracer // nil unless -trace 1
	workdir string
}

// report is what a workload hands back: its counts, its answers' faults, and
// its metrics by name.
type report struct {
	attempted, failed int64
	wrong             []string // incorrect answers: any one fails the run
	errs              []string // the first few failed operations
	e2e               map[string]float64
	layer             map[string]float64
	notes             []string // printed beside the metrics for a human reader
}

func newReport() *report {
	return &report{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// maxListed bounds the wrong answers and errors a report lists.
const maxListed = 10

// fail counts one failed operation. A *wrongAnswer also marks the run
// incorrect; any other error is an operation that failed or was refused.
func (r *report) fail(err error) {
	r.failed++
	var wa *wrongAnswer
	list := &r.errs
	if errors.As(err, &wa) {
		list = &r.wrong
	}
	if len(*list) < maxListed {
		*list = append(*list, err.Error())
	}
}

// wrongAnswer is an answer that arrived but is wrong, as opposed to an
// operation that failed, was refused, or came back incomplete.
type wrongAnswer struct{ msg string }

func (e *wrongAnswer) Error() string { return e.msg }

func wrongf(format string, args ...any) error {
	return &wrongAnswer{fmt.Sprintf(format, args...)}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"skewed-greedy": runSkewedGreedy,
	"mesh-ks":       runMeshKS,
	"matchd-mix":    runMatchdMix,
	"cluster-k2":    runClusterK2,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain())
}

func benchMain() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics and writes a Chrome trace")
	workdir := flag.String("workdir", ".bench_build/perfbench", "directory for generated inputs and traces")
	flag.Parse()

	if *workload == "all" {
		return runAll(*seed, *seconds, *traceFlag, *workdir)
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, workdir: *workdir}
	if *traceFlag == 1 {
		cfg.trace = newTracer()
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if rep.e2e["rss_peak_mb"], err = rssPeakMB(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.layer["bench.error_rate"] = errorRate(rep.attempted, rep.failed)
	if cfg.trace != nil {
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
		if err := cfg.trace.writeChrome(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		rep.notef("chrome trace: %s", path)
	}
	defs, vals := endToEnd, rep.e2e
	if cfg.trace != nil {
		defs, vals = perLayer, rep.layer
	}
	return emit(*workload, rep, defs, vals)
}

// emit prints the human-readable lines and then the JSON result line, and
// returns the exit code: 1 when any answer was wrong.
func emit(workload string, rep *report, defs []metricDef, vals map[string]float64) int {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.wrong) == 0, rep.attempted, rep.failed, make(map[string]metric)}
	fmt.Printf("workload %s: attempted %d, failed %d, error_rate %.4g\n", workload, rep.attempted, rep.failed, errorRate(rep.attempted, rep.failed))
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", d.Name, v)
			return 1
		}
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Printf("  %-24s %14.6g %-6s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	for _, e := range rep.errs {
		fmt.Println("  FAILED: " + e)
	}
	for _, w := range rep.wrong {
		fmt.Println("  WRONG: " + w)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own process, so each one's peak memory
// is its own, and fails if any of them does.
func runAll(seed int64, seconds float64, traceFlag int, workdir string) int {
	code := 0
	for _, w := range workloadNames() {
		cmd := exec.Command(os.Args[0], "-workload", w, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traceFlag), "-workdir", workdir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", w, err)
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				return 1
			}
			code = 1
		}
	}
	return code
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// settle collects garbage so that every timed call starts from the same heap
// state instead of paying for its predecessor's garbage.
func settle() { runtime.GC() }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timedSetup runs setup setupReps times and returns the last result with the
// median duration. Each repetition discards the previous one's state through
// teardown, which is not timed.
func timedSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var durs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && teardown != nil {
			teardown(last)
		}
		settle()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(durs), nil
}
