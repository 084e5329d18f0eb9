// Command graftlint runs the repo's concurrency-invariant static analysis
// suite (internal/analysis) over the module and reports findings with
// file:line diagnostics. It is the machine-checkable wall in front of the
// atomic-heavy matching kernels and the distributed runtime: cache-line
// padding of per-worker state, context propagation of the resilient entry
// points, error/panic hygiene, goroutine/lock/WaitGroup flow rules,
// hot-path allocation, exhaustive frame dispatch, cancellable goroutine
// channel ops, and lockset races over the points-to/escape tier.
//
// Usage:
//
//	graftlint [-json] [-sarif] [-checks a,b,c] [-list] [-C dir]
//	          [-baseline file] [-write-baseline file] [-suppressions]
//	          [packages]
//
// Package patterns are module-relative ("./...", "./internal/queue",
// "internal/par/..."); with none given the whole module is checked.
// -checks selects a subset by name, or with "-name" entries negates
// against the full registry (-checks=-hotpath-alloc runs all but one);
// the two forms do not mix. The
// exit status is 0 when clean, 1 when findings were reported, 2 on usage or
// load errors. Findings are suppressed per line with
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// -sarif emits SARIF 2.1.0 for code-scanning upload instead of text; rules
// carry per-check severity (defaultConfiguration.level) and a helpUri.
// -baseline subtracts the findings recorded in a baseline file (keyed by
// file, check, and message — not line) and warns about stale entries;
// -write-baseline records the current findings as that file, announcing
// the stale entries it drops, and exits 0. -suppressions reports the
// //lint:ignore ledger — directive counts per check and file, plus every
// directive that silenced nothing in the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"graftmatch/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graftlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	sarifOut := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0")
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run, or -name entries to run all but those (default: all)")
	listFlag := fs.Bool("list", false, "list available checks and exit")
	dirFlag := fs.String("C", "", "module root directory (default: nearest go.mod at or above the working directory)")
	baselineFlag := fs.String("baseline", "", "subtract findings recorded in this baseline file; warn about stale entries")
	writeBaselineFlag := fs.String("write-baseline", "", "record current findings to this baseline file and exit 0")
	suppressionsFlag := fs.Bool("suppressions", false, "report //lint:ignore directives per check and file, flagging any that silence nothing")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: graftlint [-json] [-sarif] [-checks a,b,c] [-list] [-C dir] [-baseline file] [-write-baseline file] [-suppressions] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listFlag {
		for _, c := range analysis.Checks() {
			fmt.Fprintf(stdout, "%-16s %s\n", c.Name, c.Doc)
		}
		fmt.Fprintf(stdout, "\n-checks takes a comma-separated subset, or an all-negated form\n(-checks=-hotpath-alloc runs every check but that one)\n")
		return 0
	}

	root := *dirFlag
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintf(stderr, "graftlint: %v\n", err)
			return 2
		}
		root = findModuleRoot(wd)
		if root == "" {
			fmt.Fprintf(stderr, "graftlint: no go.mod found at or above %s\n", wd)
			return 2
		}
	}

	names, err := parseChecks(*checksFlag)
	if err != nil {
		fmt.Fprintf(stderr, "graftlint: %v\n", err)
		return 2
	}

	prog, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintf(stderr, "graftlint: %v\n", err)
		return 2
	}
	diags, err := prog.Run(names)
	if err != nil {
		fmt.Fprintf(stderr, "graftlint: %v\n", err)
		return 2
	}
	diags = filterPatterns(diags, root, fs.Args(), stderr)

	if *suppressionsFlag {
		reportSuppressions(stdout, root, prog.Suppressions())
		return 0
	}
	if *writeBaselineFlag != "" {
		if err := writeBaseline(*writeBaselineFlag, root, diags, stderr); err != nil {
			fmt.Fprintf(stderr, "graftlint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "graftlint: wrote %d baseline entr%s to %s\n",
			len(diags), map[bool]string{true: "y", false: "ies"}[len(diags) == 1], *writeBaselineFlag)
		return 0
	}
	if *baselineFlag != "" {
		bf, err := loadBaseline(*baselineFlag)
		if err != nil {
			fmt.Fprintf(stderr, "graftlint: %v\n", err)
			return 2
		}
		diags = applyBaseline(bf, root, diags, stderr)
	}

	switch {
	case *sarifOut:
		if err := writeSARIF(stdout, root, diags); err != nil {
			fmt.Fprintf(stderr, "graftlint: %v\n", err)
			return 2
		}
	case *jsonOut:
		type finding struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Check   string `json:"check"`
			Message string `json:"message"`
		}
		findings := make([]finding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, finding{
				File: relTo(root, d.Pos.Filename), Line: d.Pos.Line, Col: d.Pos.Column,
				Check: d.Check, Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "graftlint: %v\n", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n",
				relTo(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// findModuleRoot ascends from dir to the nearest directory with a go.mod.
// parseChecks resolves the -checks flag: a plain comma-separated list names
// the checks to run, while "-name" entries negate — every registered check
// except those. The two forms do not mix; nil means "all checks".
func parseChecks(s string) ([]string, error) {
	var pos, neg []string
	for _, n := range strings.Split(s, ",") {
		n = strings.TrimSpace(n)
		switch {
		case n == "":
		case strings.HasPrefix(n, "-"):
			neg = append(neg, n[1:])
		default:
			pos = append(pos, n)
		}
	}
	if len(neg) == 0 {
		return pos, nil
	}
	if len(pos) > 0 {
		return nil, fmt.Errorf("-checks mixes selected (%s) and negated (-%s) names; use one form",
			strings.Join(pos, ","), strings.Join(neg, ",-"))
	}
	known := map[string]bool{}
	for _, name := range analysis.CheckNames() {
		known[name] = true
	}
	drop := map[string]bool{}
	for _, n := range neg {
		if !known[n] {
			return nil, fmt.Errorf("-checks negates unknown check %q (see -list)", n)
		}
		drop[n] = true
	}
	var names []string
	for _, name := range analysis.CheckNames() {
		if !drop[name] {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-checks negates every check; nothing to run")
	}
	return names, nil
}

func findModuleRoot(dir string) string {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// relTo renders path relative to root when possible, for stable output.
func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return path
}

// filterPatterns keeps the diagnostics whose file falls under one of the
// module-relative package patterns. An empty pattern list, "./...", or the
// bare module pattern keeps everything.
func filterPatterns(diags []analysis.Diagnostic, root string, patterns []string, stderr io.Writer) []analysis.Diagnostic {
	if len(patterns) == 0 {
		return diags
	}
	keepAll := false
	type rule struct {
		dir       string // slash-form relative dir, "" = root
		recursive bool
	}
	var rules []rule
	for _, p := range patterns {
		p = filepath.ToSlash(p)
		p = strings.TrimPrefix(p, "./")
		recursive := false
		if p == "..." || strings.HasSuffix(p, "/...") {
			recursive = true
			p = strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/")
		}
		if p == "" || p == "." {
			if recursive {
				keepAll = true
			}
			p = "."
		}
		rules = append(rules, rule{dir: p, recursive: recursive})
	}
	if keepAll {
		return diags
	}
	var out []analysis.Diagnostic
	for _, d := range diags {
		rel := filepath.ToSlash(relTo(root, d.Pos.Filename))
		dir := "."
		if i := strings.LastIndex(rel, "/"); i >= 0 {
			dir = rel[:i]
		}
		for _, r := range rules {
			if dir == r.dir || (r.recursive && strings.HasPrefix(dir, r.dir+"/")) {
				out = append(out, d)
				break
			}
		}
	}
	return out
}
