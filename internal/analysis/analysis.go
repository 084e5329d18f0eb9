package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the canonical "file:line:col: check: message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Check is one named, independently runnable invariant.
type Check struct {
	Name string
	Doc  string
	// Level is the severity a finding of this check carries in reporting
	// backends (SARIF): "error" for correctness invariants, "warning" for
	// discipline rules, "note" for performance advice.
	Level string
	// HelpURI points at the check's documentation; filled in by Checks().
	HelpURI string
	Run     func(prog *Program) []Diagnostic
}

// helpURIBase is the documentation root each check's HelpURI anchors into.
const helpURIBase = "https://graftmatch.dev/graftlint/checks#"

// Checks returns the full suite in canonical order.
func Checks() []Check {
	cs := []Check{
		FalseShare(),
		CtxDiscipline(),
		ErrChecked(),
		GoroutineLeak(),
		LockDiscipline(),
		WGBalance(),
		HotPathAlloc(),
		ProtoExhaustive(),
		CtxSelect(),
		SharedRace(),
	}
	for i := range cs {
		cs[i].HelpURI = helpURIBase + cs[i].Name
	}
	return cs
}

// CheckNames returns the names of every check in the suite.
func CheckNames() []string {
	cs := Checks()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return names
}

// Run executes the named checks (all of them when names is empty) over the
// program, filters suppressed findings, and returns the rest sorted by
// position. Unknown check names are an error. Malformed //lint:ignore
// directives are reported under the pseudo-check "lint-directive", which
// cannot be suppressed and runs regardless of the selection.
func (prog *Program) Run(names []string) ([]Diagnostic, error) {
	byName := map[string]Check{}
	for _, c := range Checks() {
		byName[c.Name] = c
	}
	var selected []Check
	if len(names) == 0 {
		selected = Checks()
	} else {
		for _, n := range names {
			c, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("analysis: unknown check %q (have %s)", n, strings.Join(CheckNames(), ", "))
			}
			selected = append(selected, c)
		}
	}
	var out []Diagnostic
	for _, c := range selected {
		for _, d := range c.Run(prog) {
			if !prog.supp.suppressed(d) {
				out = append(out, d)
			}
		}
	}
	out = append(out, prog.supp.malformed...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return out, nil
}

// shortPos renders pos as "file.go:line" (base name only), for embedding a
// cross-reference inside a message without machine-specific path prefixes.
func (prog *Program) shortPos(pos token.Pos) string {
	p := prog.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// diag constructs a Diagnostic at pos.
func (prog *Program) diag(pos token.Pos, check, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:     prog.Fset.Position(pos),
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	}
}

// eachFunc invokes fn for every function or method body in the program,
// including function literals: fn receives the package and the function
// node (*ast.FuncDecl or *ast.FuncLit) with a non-nil body. Nested literals
// get their own invocation.
func (prog *Program) eachFunc(fn func(pkg *Package, node ast.Node, body *ast.BlockStmt)) {
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch fd := n.(type) {
				case *ast.FuncDecl:
					if fd.Body != nil {
						fn(pkg, fd, fd.Body)
					}
				case *ast.FuncLit:
					fn(pkg, fd, fd.Body)
				}
				return true
			})
		}
	}
}

// walkShallow walks the statements of one function body without descending
// into nested function literals, so "same function" means the innermost one.
func walkShallow(body *ast.BlockStmt, fn func(n ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if n == nil || n == body {
			return true
		}
		return fn(n)
	})
}
