package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden expect.txt files")

// fixtureRules is the rule set the fixtures are written against. It mirrors
// DefaultRules for module path "repro", except that the weak-rand and
// exported-doc scopes point at their fixture packages.
func fixtureRules() []Rule {
	return []Rule{
		NewCTCompare("repro"),
		NewWeakRand([]string{"repro/internal/lint/testdata/weakrand/allowed"}),
		&UncheckedErr{NeverFail: []string{"bbcrypto.PRG"}},
		NewObsStats([]string{"repro/internal/obs"}),
		NewExportedDoc([]string{"repro/internal/lint/testdata/exporteddoc"}),
		NewSecretFlow("repro"),
		&HotPathAlloc{},
	}
}

// fixtureRuleID maps a fixture directory to the one rule it exercises;
// every finding the full rule set produces there must carry that ID, which
// is what makes the fixtures "trigger exactly one rule".
var fixtureRuleID = map[string]string{
	"ctcompare":        "ct-compare",
	"weakrand":         "weak-rand",
	"weakrand/allowed": "", // allowlisted: must be perfectly clean
	"uncheckederr":     "unchecked-err",
	"obsstats":         "obs-stats",
	"exporteddoc":      "exported-doc",
	"secretflow":       "secret-flow",
	"hotpathalloc":     "hotpath-alloc",
	"suppress":         directiveRule,
}

func TestFixtures(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	rules := fixtureRules()
	for _, dir := range fixtureDirs(t) {
		t.Run(dir, func(t *testing.T) {
			wantRule, known := fixtureRuleID[dir]
			if !known {
				t.Fatalf("fixture %s has no entry in fixtureRuleID", dir)
			}
			abs := filepath.Join("testdata", filepath.FromSlash(dir))
			pkg, err := loader.LoadDir(abs, "repro/internal/lint/testdata/"+dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkg.TypeErrors) > 0 {
				t.Fatalf("fixture does not type-check: %v", pkg.TypeErrors)
			}
			findings := Run([]*Package{pkg}, rules)

			var b strings.Builder
			for _, f := range findings {
				if f.RuleID != wantRule {
					t.Errorf("fixture for %q produced a foreign finding: %s", wantRule, f)
				}
				if base := filepath.Base(f.File); base != "bad.go" && base != "suppress.go" {
					t.Errorf("finding outside bad.go: %s", f)
				}
				fmt.Fprintf(&b, "%s:%d:%d: %s [%s]\n",
					filepath.Base(f.File), f.Line, f.Col, f.Message, f.RuleID)
			}
			if wantRule != "" && len(findings) == 0 {
				t.Errorf("fixture for %q produced no findings", wantRule)
			}

			golden := filepath.Join(abs, "expect.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("findings differ from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// fixtureDirs lists every directory under testdata that holds Go files,
// as slash paths relative to testdata.
func fixtureDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir("testdata", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() || path == "testdata" {
			return nil
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".go") {
				rel, _ := filepath.Rel("testdata", path)
				dirs = append(dirs, filepath.ToSlash(rel))
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// TestExpandSkipsTestdata pins the contract the fixtures rely on: the
// driver's ./... expansion never descends into testdata, so deliberately
// broken fixture packages cannot fail a bblint run over the real tree.
func TestExpandSkipsTestdata(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.Expand("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("Expand leaked a testdata package: %s", p)
		}
	}
}

// TestDefaultRulesCatalog keeps rule IDs stable: suppressions in the tree
// reference them by name.
func TestDefaultRulesCatalog(t *testing.T) {
	want := []string{
		"ct-compare", "weak-rand", "unchecked-err", "obs-stats",
		"exported-doc", "secret-flow", "hotpath-alloc",
	}
	rules := DefaultRules("repro")
	if len(rules) != len(want) {
		t.Fatalf("got %d rules, want %d", len(rules), len(want))
	}
	for i, r := range rules {
		if r.ID() != want[i] {
			t.Errorf("rule %d: got ID %q, want %q", i, r.ID(), want[i])
		}
		if r.Doc() == "" {
			t.Errorf("rule %s has no Doc", r.ID())
		}
	}
}
