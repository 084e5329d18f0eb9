package analysis_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graftmatch/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// fixtureCases pairs each check with its fixture tree and the configuration
// the fixture assumes. Every fixture holds a pos package (all findings) and
// a neg package (no findings), which the runner enforces structurally on
// top of the golden comparison.
var fixtureCases = []struct {
	name   string
	checks []string
	cfg    analysis.Config
}{
	{"falseshare", []string{"falseshare"}, analysis.Config{}},
	{"ctxdiscipline", []string{"ctx-discipline"}, analysis.Config{CtxPackages: []string{"pos", "neg"}}},
	{"errchecked", []string{"err-checked"}, analysis.Config{PanicPackages: []string{"neg"}}},
	{"goroutineleak", []string{"goroutine-leak"}, analysis.Config{}},
	{"lockdiscipline", []string{"lock-discipline"}, analysis.Config{}},
	{"wgbalance", []string{"wg-balance"}, analysis.Config{}},
	{"hotpathalloc", []string{"hotpath-alloc"}, analysis.Config{HotPackages: []string{"pos", "neg"}}},
	{"protoexhaustive", []string{"proto-exhaustive"}, analysis.Config{}},
	{"ctxselect", []string{"ctx-select"}, analysis.Config{CtxPackages: []string{"pos", "neg"}}},
	{"sharedrace", []string{"shared-race"}, analysis.Config{}},
	{"suppress", nil, analysis.Config{}},
}

func TestGolden(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.name, func(t *testing.T) {
			root := filepath.Join("testdata", "src", tc.name)
			prog, err := analysis.LoadTree(root, "fix", tc.cfg)
			if err != nil {
				t.Fatalf("LoadTree(%s): %v", root, err)
			}
			diags, err := prog.Run(tc.checks)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			absRoot, err := filepath.Abs(root)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, d := range diags {
				rel, err := filepath.Rel(absRoot, d.Pos.Filename)
				if err != nil {
					t.Fatalf("diagnostic outside fixture root: %s", d.Pos.Filename)
				}
				rel = filepath.ToSlash(rel)
				if strings.HasPrefix(rel, "neg/") {
					t.Errorf("finding in negative fixture package: %s:%d: %s: %s", rel, d.Pos.Line, d.Check, d.Message)
				}
				fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", rel, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
			}
			got := b.String()
			if got == "" {
				t.Errorf("fixture %s produced no findings; every fixture must have positives", tc.name)
			}
			goldenPath := filepath.Join("testdata", "golden", tc.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run go test -run TestGolden -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestRepoIsClean loads the real module and requires zero findings: the
// acceptance bar the CI graftlint job enforces, kept inside go test so a
// plain test run catches regressions too.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	prog, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	diags, err := prog.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func TestRunUnknownCheck(t *testing.T) {
	prog, err := analysis.LoadTree(filepath.Join("testdata", "src", "falseshare"), "fix", analysis.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run([]string{"no-such-check"}); err == nil {
		t.Fatal("Run accepted an unknown check name")
	}
}

func TestCheckNames(t *testing.T) {
	want := []string{
		"falseshare", "ctx-discipline", "err-checked", "goroutine-leak",
		"lock-discipline", "wg-balance", "hotpath-alloc", "proto-exhaustive",
		"ctx-select", "shared-race",
	}
	got := analysis.CheckNames()
	if len(got) != len(want) {
		t.Fatalf("CheckNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CheckNames()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestSuppressionAudit pins the Directive accounting behind graftlint
// -suppressions: well-formed directives are recorded with their reasons,
// hits are charged per check after a run, and a directive that silences
// nothing is visible as such. Malformed directives (missing reason, unknown
// check) become lint-directive findings instead and must not be recorded.
func TestSuppressionAudit(t *testing.T) {
	prog, err := analysis.LoadTree(filepath.Join("testdata", "src", "suppress"), "fix", analysis.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(nil); err != nil {
		t.Fatal(err)
	}
	dirs := prog.Suppressions()
	// Trailing, Above, WrongCheck, Multi; the malformed three are findings,
	// not directives.
	if len(dirs) != 4 {
		t.Fatalf("Suppressions() returned %d directives, want 4: %+v", len(dirs), dirs)
	}
	type want struct {
		checks   string
		silenced int
	}
	wants := []want{
		{"err-checked", 1},            // Trailing
		{"err-checked", 1},            // Above
		{"falseshare", 0},             // WrongCheck: names the wrong check, silences nothing
		{"err-checked,falseshare", 1}, // Multi: only the err-checked half fires
	}
	for i, d := range dirs {
		if got := strings.Join(d.Checks, ","); got != wants[i].checks {
			t.Errorf("directive %d checks = %s, want %s", i, got, wants[i].checks)
		}
		if got := d.Silenced(); got != wants[i].silenced {
			t.Errorf("directive %d (line %d) silenced %d findings, want %d", i, d.Line, got, wants[i].silenced)
		}
		if d.Reason == "" {
			t.Errorf("directive %d has an empty reason; the parser requires one", i)
		}
	}
	if h := dirs[3].Hits["err-checked"]; h != 1 {
		t.Errorf("multi-check directive charged %d err-checked hits, want 1", h)
	}
	if h := dirs[3].Hits["falseshare"]; h != 0 {
		t.Errorf("multi-check directive charged %d falseshare hits, want 0", h)
	}
}
