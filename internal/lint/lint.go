// Package lint is bblint's analyzer framework: a self-contained static
// analysis suite for the BlindBox repository built entirely on the standard
// library (go/ast, go/parser, go/types — no x/tools, so the module stays
// dependency-free).
//
// The BlindBox security argument (§3 of the paper) rests on implementation
// invariants the Go type system cannot express: secret material must be
// compared in constant time, randomness on cryptographic paths must come
// from crypto/rand, and the multi-threaded middlebox must not leak
// goroutines. Each invariant is a Rule; cmd/bblint runs every rule over
// every package and fails CI on violations. Checks the toolchain already
// makes (go vet's copylocks, Go 1.22's per-iteration loop variables) are
// not repeated here.
//
// Findings can be suppressed with an explanation:
//
//	//lint:ignore <rule-id> <reason>
//
// placed on the offending line or on the line directly above it. The reason
// is mandatory: a suppression without one is itself reported (rule
// "lint-directive").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	RuleID  string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.RuleID)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// ImportPath is the package's import path within the module.
	ImportPath string
	// Dir is the directory the package was loaded from.
	Dir string
	// Fset maps AST positions to file positions (shared across packages).
	Fset *token.FileSet
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Pkg is the type-checked package (never nil, but may be incomplete
	// when TypeErrors is non-empty).
	Pkg *types.Package
	// Info holds the type-checker's expression and identifier facts.
	Info *types.Info
	// TypeErrors collects type-checking problems; rules still run, using
	// whatever type information survived.
	TypeErrors []error
}

// Reporter records one finding at the position of node.
type Reporter func(node ast.Node, format string, args ...any)

// Rule is a single bblint check.
type Rule interface {
	// ID is the stable rule identifier used in reports and suppressions.
	ID() string
	// Doc is a one-line description for -rules output and DESIGN.md.
	Doc() string
	// Check inspects one package and reports findings.
	Check(pkg *Package, report Reporter)
}

// DefaultRules returns the standard bblint rule set for a module.
// modulePath qualifies the packages whose types mark values as secret.
func DefaultRules(modulePath string) []Rule {
	return []Rule{
		NewCTCompare(modulePath),
		NewWeakRand([]string{
			modulePath + "/internal/corpus",
			modulePath + "/internal/experiments",
		}),
		&UncheckedErr{NeverFail: []string{"bbcrypto.PRG"}},
		NewObsStats([]string{modulePath + "/internal/obs"}),
		NewExportedDoc([]string{modulePath}),
		NewSecretFlow(modulePath),
		&HotPathAlloc{},
	}
}

// preparer is an optional Rule extension: rules that need a module-wide
// view (e.g. secret-flow's cross-package annotation index) implement it and
// are handed every package of the run before per-package checks start.
type preparer interface {
	Prepare(pkgs []*Package)
}

// suppression is one parsed //lint:ignore directive.
type suppression struct {
	line   int
	rules  map[string]bool // nil after a parse error
	reason string
	pos    token.Position
	used   bool
}

// directiveRule is the pseudo-rule under which malformed or unused
// //lint:ignore directives are reported.
const directiveRule = "lint-directive"

// parseSuppressions extracts //lint:ignore directives from one file.
func parseSuppressions(fset *token.FileSet, file *ast.File) []*suppression {
	var out []*suppression
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			s := &suppression{line: pos.Line, pos: pos}
			fields := strings.Fields(text)
			if len(fields) >= 2 {
				s.rules = make(map[string]bool)
				for _, r := range strings.Split(fields[0], ",") {
					s.rules[r] = true
				}
				s.reason = strings.Join(fields[1:], " ")
			}
			out = append(out, s)
		}
	}
	return out
}

// Run executes every rule over every package, applies suppressions, and
// returns findings sorted by position with duplicates (same position and
// rule, e.g. one tainted value reaching a sink along two dataflow paths)
// removed.
func Run(pkgs []*Package, rules []Rule) []Finding {
	for _, rule := range rules {
		if p, ok := rule.(preparer); ok {
			p.Prepare(pkgs)
		}
	}
	var findings []Finding
	for _, pkg := range pkgs {
		var sups []*suppression
		for _, f := range pkg.Files {
			sups = append(sups, parseSuppressions(pkg.Fset, f)...)
		}
		for _, rule := range rules {
			id := rule.ID()
			rule.Check(pkg, func(node ast.Node, format string, args ...any) {
				pos := pkg.Fset.Position(node.Pos())
				if suppressed(sups, pos, id) {
					return
				}
				findings = append(findings, Finding{
					RuleID:  id,
					File:    pos.Filename,
					Line:    pos.Line,
					Col:     pos.Column,
					Message: fmt.Sprintf(format, args...),
				})
			})
		}
		for _, s := range sups {
			switch {
			case s.rules == nil:
				findings = append(findings, Finding{
					RuleID: directiveRule, File: s.pos.Filename, Line: s.line, Col: s.pos.Column,
					Message: "malformed //lint:ignore: want \"//lint:ignore <rule> <reason>\"",
				})
			case !s.used:
				findings = append(findings, Finding{
					RuleID: directiveRule, File: s.pos.Filename, Line: s.line, Col: s.pos.Column,
					Message: "//lint:ignore suppresses nothing (no matching finding on this or the next line)",
				})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.RuleID < b.RuleID
	})
	return dedupe(findings)
}

// dedupe drops findings that share position and rule with a predecessor
// (the first message wins; the slice must be sorted).
func dedupe(findings []Finding) []Finding {
	out := findings[:0]
	for i, f := range findings {
		if i > 0 {
			p := out[len(out)-1]
			if p.File == f.File && p.Line == f.Line && p.Col == f.Col && p.RuleID == f.RuleID {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// suppressed reports whether a finding of rule id at pos is covered by a
// directive on the same line or the line directly above.
func suppressed(sups []*suppression, pos token.Position, id string) bool {
	for _, s := range sups {
		if s.rules == nil || s.pos.Filename != pos.Filename {
			continue
		}
		if (s.line == pos.Line || s.line == pos.Line-1) && (s.rules[id] || s.rules["*"]) {
			s.used = true
			return true
		}
	}
	return false
}

// --- shared helpers used by several rules ---

// exprName returns the rightmost meaningful identifier of an expression:
// x -> "x", a.b -> "b", m[i] -> "m", f(x) -> "f", *p -> "p".
func exprName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	case *ast.IndexExpr:
		return exprName(v.X)
	case *ast.CallExpr:
		return exprName(v.Fun)
	case *ast.StarExpr:
		return exprName(v.X)
	case *ast.ParenExpr:
		return exprName(v.X)
	case *ast.UnaryExpr:
		return exprName(v.X)
	}
	return ""
}

// splitWords splits an identifier into lower-cased words at underscores and
// camelCase boundaries: "tagKey" -> [tag key], "SSLKey" -> [ssl key].
func splitWords(ident string) []string {
	var words []string
	var cur []rune
	runes := []rune(ident)
	flush := func() {
		if len(cur) > 0 {
			words = append(words, strings.ToLower(string(cur)))
			cur = nil
		}
	}
	for i, r := range runes {
		switch {
		case r == '_' || r == '$':
			flush()
			continue
		case i > 0 && isUpper(r) && !isUpper(runes[i-1]):
			// aB -> a|B
			flush()
		case i > 0 && i+1 < len(runes) && isUpper(r) && isUpper(runes[i-1]) && !isUpper(runes[i+1]):
			// ABc -> A|Bc
			flush()
		}
		cur = append(cur, r)
	}
	flush()
	return words
}

func isUpper(r rune) bool { return r >= 'A' && r <= 'Z' }

// typeOf returns the type of e, or nil when type information is missing.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if info == nil {
		return nil
	}
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// calleeObj resolves the called function or method object of a call, or nil
// for indirect calls, conversions and missing type information.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		return info.Uses[f.Sel]
	}
	return nil
}

// isByteSeq reports whether t's underlying type is a byte array or slice.
func isByteSeq(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Array:
		b, ok := u.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	case *types.Slice:
		b, ok := u.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	}
	return false
}
