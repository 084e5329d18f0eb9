package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The comparator reads two result sets, parent and change, and gives each
// workload × end-to-end metric a verdict by the rule below. A result set is
// a directory holding <workload>.jsonl (untraced runs) and optionally
// <workload>.trace.jsonl (traced runs): one run's JSON result line per line,
// in run order, so that line i of the parent and line i of the change form
// pair i.
//
//	perfbench compare -parent DIR -change DIR [-bench BENCHMARK.json]

// Verdicts.
const (
	improved   = "improved"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// benchFile is the part of BENCHMARK.json the comparator reads.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runResult is one run's JSON result line.
type runResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// judgement is the comparison of one metric on one workload.
type judgement struct {
	Verdict     string
	Wins, Pairs int
	Parent      [3]float64 // q1, median, q3
	Change      [3]float64
}

// judge applies the rule for a change that claims a gain or must show none:
//
//   - improved: the change wins at least nine tenths of the pairs (ties count
//     for neither side) and its median is better than the parent's by more
//     than the parent's own spread (the distance between its quartiles);
//   - unresolved: otherwise, when the parent's spread is wider than the
//     bound, unless every change run reads better than every parent run;
//   - worse: the change's median is worse than the parent's by more than
//     bound × the parent's median;
//   - unchanged: otherwise.
func judge(parent, change []float64, better string, bound float64) judgement {
	j := judgement{Pairs: min(len(parent), len(change))}
	if j.Pairs == 0 {
		j.Verdict = unresolved
		return j
	}
	gain := func(p, c float64) float64 { // > 0 when c is better than p
		if better == "higher" {
			return c - p
		}
		return p - c
	}
	for i := 0; i < j.Pairs; i++ {
		if gain(parent[i], change[i]) > 0 {
			j.Wins++
		}
	}
	pq1, pq3 := quartiles(parent)
	cq1, cq3 := quartiles(change)
	pm, cm := median(parent), median(change)
	j.Parent = [3]float64{pq1, pm, pq3}
	j.Change = [3]float64{cq1, cm, cq3}
	spread := pq3 - pq1
	switch {
	case 10*j.Wins >= 9*j.Pairs && gain(pm, cm) > spread:
		j.Verdict = improved
	case spread > bound*pm && !allBetter(parent, change, gain):
		j.Verdict = unresolved
	case -gain(pm, cm) > bound*pm:
		j.Verdict = worse
	default:
		j.Verdict = unchanged
	}
	return j
}

// allBetter reports whether every change run reads better than every parent
// run.
func allBetter(parent, change []float64, gain func(p, c float64) float64) bool {
	for _, p := range parent {
		for _, c := range change {
			if gain(p, c) <= 0 {
				return false
			}
		}
	}
	return true
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	parent := fs.String("parent", "", "result set of the parent commit")
	change := fs.String("change", "", "result set of the change")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parent == "" || *change == "" {
		fmt.Fprintln(os.Stderr, "perfbench compare: -parent and -change are required")
		return 2
	}
	if err := compare(os.Stdout, *benchPath, *parent, *change); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 1
	}
	return 0
}

func compare(w io.Writer, benchPath, parentDir, changeDir string) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	for _, wl := range b.Workloads {
		p, err := readResults(filepath.Join(parentDir, wl.Name+".jsonl"))
		if err != nil {
			return err
		}
		c, err := readResults(filepath.Join(changeDir, wl.Name+".jsonl"))
		if err != nil {
			return err
		}
		if len(p) == 0 && len(c) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s: %d parent runs, %d change runs; error rate parent %s, change %s\n",
			wl.Name, len(p), len(c), rateOf(p), rateOf(c))
		if failedOf(c) > failedOf(p) {
			fmt.Fprintln(w, "  the change fails more operations than the parent: no gain counts")
		}
		fmt.Fprintf(w, "  %-18s %-9s %-34s %-34s %-8s %s\n", "metric", "unit", "parent q1 / median / q3", "change q1 / median / q3", "wins", "verdict")
		for _, m := range b.EndToEnd {
			j := judge(valuesOf(p, m.Name), valuesOf(c, m.Name), m.Better, m.Bound)
			fmt.Fprintf(w, "  %-18s %-9s %-34s %-34s %3d/%-4d %s (bound %.0f%%, %s is better)\n", m.Name, m.Unit,
				fmtTriple(j.Parent), fmtTriple(j.Change), j.Wins, j.Pairs, j.Verdict, 100*m.Bound, m.Better)
		}
		pt, err := readResults(filepath.Join(parentDir, wl.Name+".trace.jsonl"))
		if err != nil {
			return err
		}
		ct, err := readResults(filepath.Join(changeDir, wl.Name+".trace.jsonl"))
		if err != nil {
			return err
		}
		if len(pt) == 0 || len(ct) == 0 {
			continue
		}
		fmt.Fprintf(w, "  per-layer medians (%d parent, %d change traced runs):\n", len(pt), len(ct))
		for _, m := range b.PerLayer {
			pm, cm := median(valuesOf(pt, m.Name)), median(valuesOf(ct, m.Name))
			if pm == 0 && cm == 0 {
				continue // a layer this workload does not run
			}
			delta := "n/a"
			if pm != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(cm-pm)/pm)
			}
			fmt.Fprintf(w, "    %-24s %-6s %14.6g -> %-14.6g %s\n", m.Name, m.Unit, pm, cm, delta)
		}
	}
	return nil
}

func fmtTriple(t [3]float64) string {
	return fmt.Sprintf("%.4g / %.4g / %.4g", t[0], t[1], t[2])
}

// readResults reads one JSON result per line; a missing file is an empty
// set. Lines that are not JSON objects (a run's human-readable output) are
// skipped, so a file may also hold whole captured runs.
func readResults(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r runResult
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func valuesOf(rs []runResult, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func failedOf(rs []runResult) (failed int64) {
	for _, r := range rs {
		failed += r.Failed
	}
	return failed
}

// rateOf is the set's error rate over all its runs.
func rateOf(rs []runResult) string {
	var attempted int64
	for _, r := range rs {
		attempted += r.Attempted
	}
	if attempted == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.4g", errorRate(attempted, failedOf(rs)))
}
