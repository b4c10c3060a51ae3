// §7.2.2 connection setup: obfuscated rule encryption time as a function
// of ruleset size (paper: 650 ms at 10 keywords, 1.6 s at 100, 9.5 s at
// 1000, 97 s at 10k; 1042 µs to garble one circuit; 599 KB per circuit).

package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/circuit"
	"repro/internal/garble"
	"repro/internal/ruleprep"
	"repro/internal/rules"
	"repro/internal/tokenize"
)

// SetupResult measures rule preparation.
type SetupResult struct {
	// Fixed is the setup cost a connection pays whatever its ruleset: each
	// endpoint's OT base phase.
	Fixed time.Duration
	// PerKeyword is the marginal setup cost of one keyword (both endpoints
	// garbling, verification, its share of the OT extension, evaluation).
	PerKeyword time.Duration
	// GarbleOnly is the cost of garbling one circuit once.
	GarbleOnly time.Duration
	// CircuitBytes is the wire size of one garbled circuit.
	CircuitBytes int
	// CircuitANDs is the circuit's AND-gate count.
	CircuitANDs int
	// Points holds (keywords, total time) — measured for small counts,
	// Fixed + n·PerKeyword for large ones.
	Points []SetupPoint
}

// SetupPoint is one ruleset size.
type SetupPoint struct {
	Keywords     int
	Total        time.Duration
	Extrapolated bool
	Paper        string
}

// SetupOptions controls the measured sizes.
type SetupOptions struct {
	// MeasuredKeywords is the largest ruleset size run for real, and the
	// larger of the two sizes the cost model is fitted through.
	MeasuredKeywords int
}

// DefaultSetupOptions measures up to 16 keywords and extrapolates beyond.
func DefaultSetupOptions() SetupOptions { return SetupOptions{MeasuredKeywords: 16} }

// Setup measures rule-preparation costs.
func Setup(opt SetupOptions) (SetupResult, error) {
	if opt.MeasuredKeywords <= 0 {
		opt.MeasuredKeywords = DefaultSetupOptions().MeasuredKeywords
	}
	var res SetupResult

	f := ruleprep.F()
	res.CircuitANDs = f.NumAND()
	g, _, err := garble.Garble(f, ruleprep.FixedGarblingKey, bbcrypto.NewPRG(bbcrypto.Block{1}))
	if err != nil {
		return res, err
	}
	res.CircuitBytes = g.Size()
	start := time.Now()
	const garbleReps = 3
	for i := 0; i < garbleReps; i++ {
		if _, _, err := garble.Garble(f, ruleprep.FixedGarblingKey, bbcrypto.NewPRG(bbcrypto.Block{byte(i)})); err != nil {
			return res, err
		}
	}
	res.GarbleOnly = time.Since(start) / garbleReps

	fit, err := fitSetup(opt.MeasuredKeywords)
	if err != nil {
		return res, err
	}
	res.Fixed, res.PerKeyword = fit.Fixed, fit.PerKeyword

	paper := map[int]string{10: "650ms", 100: "1.6s", 1000: "9.5s", 10000: "97s"}
	for _, n := range []int{10, 100, 1000, 10000} {
		pt := SetupPoint{Keywords: n, Paper: paper[n]}
		if n <= opt.MeasuredKeywords {
			if pt.Total, err = measureSetup(n); err != nil {
				return res, err
			}
		} else {
			pt.Total = fit.total(n)
			pt.Extrapolated = true
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// PrintSetup renders the setup-cost report.
func PrintSetup(w io.Writer, r SetupResult) {
	fmt.Fprintln(w, "§7.2.2 connection setup (obfuscated rule encryption)")
	fmt.Fprintf(w, "rule-encryption circuit: %d AND gates, %s per garbled circuit (paper: 599KB for a 6.8K-gate AES)\n",
		r.CircuitANDs, fmtBytes(r.CircuitBytes))
	fmt.Fprintf(w, "garble one circuit: %s (paper: 1042µs with JustGarble's hand-optimized AES)\n", fmtDuration(r.GarbleOnly))
	fmt.Fprintf(w, "full setup: %s per connection (OT base phases) + %s per keyword (2 garblings + verify + OT extension + eval)\n",
		fmtDuration(r.Fixed), fmtDuration(r.PerKeyword))
	t := newTable(w)
	t.row("Keywords", "setup time", "paper")
	for _, p := range r.Points {
		v := fmtDuration(p.Total)
		if p.Extrapolated {
			v += "*"
		}
		t.row(fmt.Sprintf("%d", p.Keywords), v, p.Paper)
	}
	t.flush()
	fmt.Fprintln(w, "(* extrapolated as fixed + n x per-keyword: setup is linear in keyword count, §3.3)")
}

// AblationGarbleSBox compares garbling cost of the two S-box circuit
// constructions (DESIGN.md ablation): the tower-field inverse circuit vs
// the multiplexer-tree circuit.
func AblationGarbleSBox(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: AES S-box circuit construction (per garbled AES-128)")
	t := newTable(w)
	t.row("S-box", "AND gates", "garble time", "wire size")
	for _, impl := range []circuit.SBoxImpl{circuit.SBoxGF, circuit.SBoxMux} {
		c := circuit.BuildAES128(impl)
		start := time.Now()
		g, _, err := garble.Garble(c, ruleprep.FixedGarblingKey, bbcrypto.NewPRG(bbcrypto.Block{9}))
		if err != nil {
			return err
		}
		t.row(impl.String(), fmt.Sprintf("%d", c.NumAND()), fmtDuration(time.Since(start)), fmtBytes(g.Size()))
	}
	t.flush()
	return nil
}

// AblationGarbleRows compares the three AND-gate table constructions —
// classic four-row point-and-permute, GRR3 row reduction, and ZRE15 half
// gates (what every connection uses) — on the rule-encryption circuit F.
// Wire size is the per-keyword setup traffic of §7.2.2.
func AblationGarbleRows(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: garbled-table construction (per rule-encryption circuit F)")
	f := ruleprep.F()
	t := newTable(w)
	t.row("Scheme", "rows/AND", "garble time", "wire size")
	for _, v := range []struct {
		name string
		opts garble.Options
	}{
		{"point-and-permute", garble.Options{FullRows: true}},
		{"GRR3", garble.Options{GRR3: true}},
		{"half gates (default)", garble.Options{}},
	} {
		start := time.Now()
		g, _, err := garble.GarbleWith(f, ruleprep.FixedGarblingKey, bbcrypto.NewPRG(bbcrypto.Block{7}), v.opts)
		if err != nil {
			return err
		}
		t.row(v.name, fmt.Sprintf("%d", g.Rows), fmtDuration(time.Since(start)), fmtBytes(g.Size()))
	}
	t.flush()
	return nil
}

// AblationUnauthorized verifies the RG-authorization property end to end:
// setup with a bad tag must yield no token key.
func AblationUnauthorized(w io.Writer) error {
	k := bbcrypto.RandomBlock()
	kRG := bbcrypto.RandomBlock()
	krand := bbcrypto.RandomBlock()
	var frag [tokenize.TokenSize]byte
	copy(frag[:], "badfrag!")
	blk := rules.FragmentBlock(frag)
	req := ruleprep.Request{
		Fragments: []bbcrypto.Block{blk, blk},
		Tags:      []bbcrypto.Block{bbcrypto.MAC(kRG, blk), bbcrypto.RandomBlock()},
	}
	mb, err := ruleprep.NewMiddlebox(req)
	if err != nil {
		return err
	}
	keys, _, err := ruleprep.RunLocal(
		ruleprep.NewEndpoint(k, kRG, krand), ruleprep.NewEndpoint(k, kRG, krand), mb)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "authorization check: tagged fragment key=%v, forged-tag fragment key=%v (want true,false)\n",
		keys[0] != nil, keys[1] != nil)
	return nil
}
