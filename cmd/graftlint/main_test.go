package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graftmatch/internal/analysis"
)

// writeFixtureModule lays out a small module with one dirty package (two
// err-checked findings) and one clean package, and returns its root.
func writeFixtureModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixmod\n\ngo 1.22\n",
		"dirty/dirty.go": `// Package dirty drops errors.
package dirty

import "errors"

func fail() error { return errors.New("boom") }

// Drop discards the error (finding 1).
func Drop() {
	fail()
}

// Explode panics outside the containment layer (finding 2).
func Explode() {
	panic("boom")
}
`,
		"clean/clean.go": `// Package clean is finding-free.
package clean

import "errors"

func fail() error { return errors.New("ok") }

// Handled propagates the error.
func Handled() error { return fail() }
`,
	}
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestFindingsExitNonZero(t *testing.T) {
	root := writeFixtureModule(t)
	code, out, _ := runLint(t, "-C", root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	for _, want := range []string{
		"dirty/dirty.go:10:2: err-checked:",
		"dirty/dirty.go:15:2: err-checked:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "clean/clean.go") {
		t.Errorf("clean package reported:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	root := writeFixtureModule(t)
	code, out, _ := runLint(t, "-C", root, "-json")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	var findings []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(findings) != 2 {
		t.Fatalf("findings = %d, want 2:\n%s", len(findings), out)
	}
	if findings[0].File != "dirty/dirty.go" || findings[0].Line != 10 || findings[0].Check != "err-checked" {
		t.Errorf("unexpected first finding: %+v", findings[0])
	}
	if findings[1].Line != 15 || findings[1].Message == "" {
		t.Errorf("unexpected second finding: %+v", findings[1])
	}
}

func TestChecksSelection(t *testing.T) {
	root := writeFixtureModule(t)
	// The fixture only has err-checked findings: selecting another check
	// must come back clean.
	code, out, _ := runLint(t, "-C", root, "-checks", "ctx-discipline,falseshare")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out)
	}
	code, out, _ = runLint(t, "-C", root, "-checks", "err-checked")
	if code != 1 || strings.Count(out, "err-checked") != 2 {
		t.Fatalf("exit = %d, want 1 with two err-checked findings; output:\n%s", code, out)
	}
}

func TestUnknownCheckIsUsageError(t *testing.T) {
	root := writeFixtureModule(t)
	code, _, errb := runLint(t, "-C", root, "-checks", "no-such-check")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb, "unknown check") {
		t.Errorf("stderr missing unknown-check message:\n%s", errb)
	}
}

func TestPatternFiltering(t *testing.T) {
	root := writeFixtureModule(t)
	code, out, _ := runLint(t, "-C", root, "./clean/...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 when only the clean package is selected; output:\n%s", code, out)
	}
	code, out, _ = runLint(t, "-C", root, "./dirty")
	if code != 1 || strings.Count(out, "err-checked") != 2 {
		t.Fatalf("exit = %d, want 1 with both findings for ./dirty; output:\n%s", code, out)
	}
	code, _, _ = runLint(t, "-C", root, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 for ./...", code)
	}
}

func TestListChecks(t *testing.T) {
	code, out, _ := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{
		"falseshare", "ctx-discipline", "err-checked", "goroutine-leak",
		"lock-discipline", "wg-balance", "hotpath-alloc", "proto-exhaustive",
		"ctx-select", "shared-race",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "-checks=-hotpath-alloc") {
		t.Errorf("-list output missing the negation syntax note:\n%s", out)
	}
}

// TestParseChecks pins the -checks grammar: plain names select, -name
// entries negate against the full registry, and the two forms do not mix.
func TestParseChecks(t *testing.T) {
	all := analysis.CheckNames()
	allBut := func(drop ...string) []string {
		skip := map[string]bool{}
		for _, d := range drop {
			skip[d] = true
		}
		var out []string
		for _, n := range all {
			if !skip[n] {
				out = append(out, n)
			}
		}
		return out
	}
	var negateAll []string
	for _, n := range all {
		negateAll = append(negateAll, "-"+n)
	}
	cases := []struct {
		name    string
		in      string
		want    []string
		wantErr string
	}{
		{name: "empty means all", in: "", want: nil},
		{name: "single", in: "err-checked", want: []string{"err-checked"}},
		{name: "spaces and commas", in: " err-checked , falseshare ,", want: []string{"err-checked", "falseshare"}},
		{name: "negate one", in: "-hotpath-alloc", want: allBut("hotpath-alloc")},
		{name: "negate two", in: "-shared-race,-lock-discipline", want: allBut("shared-race", "lock-discipline")},
		{name: "mixed forms", in: "err-checked,-falseshare", wantErr: "use one form"},
		{name: "negate unknown", in: "-no-such-check", wantErr: "unknown check"},
		{name: "negate everything", in: strings.Join(negateAll, ","), wantErr: "nothing to run"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseChecks(tc.in)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseChecks(%q) err = %v, want containing %q", tc.in, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseChecks(%q): %v", tc.in, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("parseChecks(%q) = %v, want %v", tc.in, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("parseChecks(%q)[%d] = %q, want %q", tc.in, i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestChecksNegationEndToEnd: negating the only firing check silences the
// dirty fixture; negating an unrelated one leaves its findings intact.
func TestChecksNegationEndToEnd(t *testing.T) {
	root := writeFixtureModule(t)
	code, out, _ := runLint(t, "-C", root, "-checks", "-err-checked")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 with err-checked negated; output:\n%s", code, out)
	}
	code, out, _ = runLint(t, "-C", root, "-checks", "-ctx-discipline")
	if code != 1 || strings.Count(out, "err-checked") != 2 {
		t.Fatalf("exit = %d, want 1 with both err-checked findings; output:\n%s", code, out)
	}
}

// TestSARIFOutput validates the -sarif log against the SARIF 2.1.0 shape
// GitHub code scanning consumes: schema/version headers, the tool driver
// with the full rule list, and per-result rule, level, message, and
// physical location.
func TestSARIFOutput(t *testing.T) {
	root := writeFixtureModule(t)
	code, out, _ := runLint(t, "-C", root, "-sarif")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
						HelpURI              string `json:"helpUri"`
						DefaultConfiguration struct {
							Level string `json:"level"`
						} `json:"defaultConfiguration"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("invalid SARIF JSON: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Errorf("version = %q, $schema = %q; want SARIF 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "graftlint" {
		t.Errorf("driver name = %q, want graftlint", run.Tool.Driver.Name)
	}
	ruleIDs := map[string]bool{}
	ruleLevels := map[string]string{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
		ruleLevels[r.ID] = r.DefaultConfiguration.Level
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no shortDescription", r.ID)
		}
		if r.DefaultConfiguration.Level == "" {
			t.Errorf("rule %s has no defaultConfiguration.level", r.ID)
		}
		if r.ID != "lint-directive" && !strings.Contains(r.HelpURI, r.ID) {
			t.Errorf("rule %s helpUri = %q, want an anchor naming the check", r.ID, r.HelpURI)
		}
	}
	for _, want := range []string{"err-checked", "goroutine-leak", "lock-discipline", "wg-balance", "hotpath-alloc",
		"proto-exhaustive", "ctx-select", "shared-race", "lint-directive"} {
		if !ruleIDs[want] {
			t.Errorf("driver rules missing %q", want)
		}
	}
	// The level triage: hard invariants are errors, heuristics warn or note.
	for rule, level := range map[string]string{
		"err-checked":    "error",
		"ctx-discipline": "warning",
		"goroutine-leak": "warning",
		"falseshare":     "note",
		"hotpath-alloc":  "note",
		"shared-race":    "error",
		"ctx-select":     "error",
	} {
		if ruleLevels[rule] != level {
			t.Errorf("rule %s level = %q, want %q", rule, ruleLevels[rule], level)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2:\n%s", len(run.Results), out)
	}
	res := run.Results[0]
	if res.RuleID != "err-checked" || res.Level != "error" || res.Message.Text == "" {
		t.Errorf("unexpected first result: %+v", res)
	}
	if len(res.Locations) != 1 {
		t.Fatalf("locations = %d, want 1", len(res.Locations))
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "dirty/dirty.go" {
		t.Errorf("uri = %q, want dirty/dirty.go", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 10 || loc.Region.StartColumn != 2 {
		t.Errorf("region = %+v, want 10:2", loc.Region)
	}
}

// TestBaselineRoundTrip exercises the add/expire lifecycle: record the
// current findings, verify they are subtracted, verify a fixed finding is
// reported as stale, and verify a new finding still fails the run.
func TestBaselineRoundTrip(t *testing.T) {
	root := writeFixtureModule(t)
	baseline := filepath.Join(root, "lint-baseline.json")

	// Record: exit 0 and a two-entry ledger.
	code, _, errb := runLint(t, "-C", root, "-write-baseline", baseline)
	if code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0; stderr:\n%s", code, errb)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Version int `json:"version"`
		Entries []struct {
			File, Check, Message string
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("invalid baseline JSON: %v\n%s", err, data)
	}
	if bf.Version != 1 || len(bf.Entries) != 2 {
		t.Fatalf("baseline = version %d with %d entries, want version 1 with 2", bf.Version, len(bf.Entries))
	}

	// Subtract: same tree is now clean, no stale warnings.
	code, out, errb := runLint(t, "-C", root, "-baseline", baseline)
	if code != 0 {
		t.Fatalf("baselined run exit = %d, want 0; output:\n%s", code, out)
	}
	if strings.Contains(errb, "stale") {
		t.Errorf("unexpected stale warnings:\n%s", errb)
	}

	// Expire: fixing a finding turns its entry stale (warned, still exit 0).
	dirty := filepath.Join(root, "dirty", "dirty.go")
	src, err := os.ReadFile(dirty)
	if err != nil {
		t.Fatal(err)
	}
	fixed := strings.Replace(string(src), "func Drop() {\n\tfail()\n}", "func Drop() error {\n\treturn fail()\n}", 1)
	if fixed == string(src) {
		t.Fatal("fixture rewrite did not apply")
	}
	if err := os.WriteFile(dirty, []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errb = runLint(t, "-C", root, "-baseline", baseline)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 after fix; output:\n%s", code, out)
	}
	if !strings.Contains(errb, "stale baseline entry") || !strings.Contains(errb, "err-checked") {
		t.Errorf("expected stale-entry warning on stderr, got:\n%s", errb)
	}

	// Add: a new finding is not absorbed by the old ledger.
	extra := filepath.Join(root, "dirty", "extra.go")
	if err := os.WriteFile(extra, []byte("package dirty\n\n// Leak drops a fresh error.\nfunc Leak() {\n\tfail()\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runLint(t, "-C", root, "-baseline", baseline)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 with new finding; output:\n%s", code, out)
	}
	if !strings.Contains(out, "dirty/extra.go") {
		t.Errorf("new finding missing from output:\n%s", out)
	}
}

// TestBaselineErrors covers the failure modes: missing ledger and
// unsupported version are load errors (exit 2).
func TestBaselineErrors(t *testing.T) {
	root := writeFixtureModule(t)
	code, _, errb := runLint(t, "-C", root, "-baseline", filepath.Join(root, "missing.json"))
	if code != 2 {
		t.Fatalf("missing baseline: exit = %d, want 2; stderr:\n%s", code, errb)
	}
	bad := filepath.Join(root, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version": 99, "entries": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errb = runLint(t, "-C", root, "-baseline", bad)
	if code != 2 {
		t.Fatalf("bad version: exit = %d, want 2; stderr:\n%s", code, errb)
	}
	if !strings.Contains(errb, "unsupported baseline version") {
		t.Errorf("expected version error, got:\n%s", errb)
	}
}

func TestLoadErrorExitsTwo(t *testing.T) {
	root := t.TempDir() // no go.mod
	code, _, errb := runLint(t, "-C", root)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, errb)
	}
}

func TestRepoCleanViaCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	code, out, errb := runLint(t, "-C", root, "./...")
	if code != 0 {
		t.Fatalf("graftlint on the repo: exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
}

// TestSuppressionsReport drives graftlint -suppressions over a module with
// one live directive and one stale one: the report must count both and list
// only the stale directive as silencing nothing, exiting 0 (the audit is a
// report, not a gate).
func TestSuppressionsReport(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module supmod\n\ngo 1.22\n",
		"a/a.go": `// Package a carries one live and one stale suppression.
package a

import "errors"

func fail() error { return errors.New("boom") }

// Drop is silenced by a live directive.
func Drop() {
	fail() //lint:ignore err-checked live: intentional drop for the report test
}

// Handled propagates the error; the directive above it is dead weight.
func Handled() error {
	//lint:ignore err-checked stale: the call below handles its error
	return fail()
}
`,
	}
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, out, errb := runLint(t, "-C", root, "-suppressions")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errb)
	}
	for _, want := range []string{
		"2 //lint:ignore directives in 1 file",
		"err-checked",
		"a/a.go",
		"silencing nothing",
		"a/a.go:15: err-checked — stale: the call below handles its error",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-suppressions output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "live: intentional drop") {
		t.Errorf("live directive listed as stale:\n%s", out)
	}
}

// TestWriteBaselineDropsStale pins the rewrite path: regenerating a baseline
// after a finding is fixed must shrink the ledger and announce each dropped
// entry, so retired debt is visible in the rewrite's output.
func TestWriteBaselineDropsStale(t *testing.T) {
	root := writeFixtureModule(t)
	baseline := filepath.Join(root, "lint-baseline.json")
	if code, _, errb := runLint(t, "-C", root, "-write-baseline", baseline); code != 0 {
		t.Fatalf("initial write exit = %d; stderr:\n%s", code, errb)
	}

	// Fix one of the two findings, then rewrite.
	dirty := filepath.Join(root, "dirty", "dirty.go")
	src, err := os.ReadFile(dirty)
	if err != nil {
		t.Fatal(err)
	}
	fixed := strings.Replace(string(src), "func Drop() {\n\tfail()\n}", "func Drop() error {\n\treturn fail()\n}", 1)
	if fixed == string(src) {
		t.Fatal("fixture rewrite did not apply")
	}
	if err := os.WriteFile(dirty, []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errb := runLint(t, "-C", root, "-write-baseline", baseline)
	if code != 0 {
		t.Fatalf("rewrite exit = %d; stderr:\n%s", code, errb)
	}
	if !strings.Contains(errb, "dropping stale baseline entry") || !strings.Contains(errb, "discarded") {
		t.Errorf("rewrite did not announce the dropped entry:\n%s", errb)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Entries []struct{ File, Check, Message string } `json:"entries"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Entries) != 1 {
		t.Fatalf("rewritten baseline has %d entries, want 1: %+v", len(bf.Entries), bf.Entries)
	}
	if !strings.Contains(bf.Entries[0].Message, "panic") {
		t.Errorf("surviving entry = %+v, want the panic finding", bf.Entries[0])
	}
}
