package experiments

import "testing"

// TestScenariosConformance runs the full adversarial-scenario experiment
// and asserts the issue's acceptance criteria: at least two packs and six
// named transforms, zero undeclared misses, zero false alerts, every
// MustDetect caught, and every case conforming.
func TestScenariosConformance(t *testing.T) {
	res, err := Scenarios(DefaultScenariosOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packs) < 2 {
		t.Fatalf("%d packs, want >= 2", len(res.Packs))
	}
	if len(res.Transforms) < 6 {
		t.Fatalf("%d named transforms, want >= 6: %v", len(res.Transforms), res.Transforms)
	}
	packNames := map[string]bool{}
	for _, p := range res.Packs {
		packNames[p.Pack] = true
		if p.UndeclaredMisses != 0 {
			t.Errorf("%s: %d undeclared misses", p.Pack, p.UndeclaredMisses)
		}
		if p.FalseAlerts != 0 {
			t.Errorf("%s: %d false alerts", p.Pack, p.FalseAlerts)
		}
		if p.Detected != p.MustDetect {
			t.Errorf("%s: detection %d/%d", p.Pack, p.Detected, p.MustDetect)
		}
		if p.Cases == 0 || p.Tokens == 0 {
			t.Errorf("%s: empty pack (%d cases, %d tokens)", p.Pack, p.Cases, p.Tokens)
		}
	}
	for _, want := range []string{"evasion", "bittorrent"} {
		if !packNames[want] {
			t.Errorf("pack %q missing (have %v)", want, packNames)
		}
	}
	for _, c := range res.Cases {
		if !c.OK {
			t.Errorf("%s/%s [%s]: %s", c.Pack, c.Label, c.Outcome, c.Reason)
		}
	}
	if len(res.MissClasses) == 0 {
		t.Error("no documented miss classes exercised — the miss taxonomy is untested")
	}
}
