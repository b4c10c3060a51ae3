// §7.2.2 connection setup: obfuscated rule encryption time as a function
// of ruleset size (paper: 650 ms at 10 keywords, 1.6 s at 100, 9.5 s at
// 1000, 97 s at 10k; 1042 µs to garble one circuit; 599 KB per circuit).

package experiments

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/bbcrypto"
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
	// Points holds (keywords, total time), each Fixed + n·PerKeyword.
	Points []SetupPoint
}

// SetupPoint is one ruleset size.
type SetupPoint struct {
	Keywords     int
	Total        time.Duration
	Extrapolated bool
	Paper        string
}

// Setup reads rule preparation's costs: the fit both Table 2 and this
// table print, and one garbling of F.
func Setup() (SetupResult, error) {
	out, err := theSetupFit()
	if err != nil {
		return SetupResult{}, err
	}
	res, err := run([]Cell{garbleCell})
	if err != nil {
		return SetupResult{}, err
	}
	g := res[garbleCell.Name]
	out.GarbleOnly, out.CircuitBytes, out.CircuitANDs = perOp(g), int(g.Extra["bytes/circuit"]), int(g.Extra["ANDs"])
	paper := map[int]string{10: "650ms", 100: "1.6s", 1000: "9.5s", 10000: "97s"}
	for _, n := range []int{10, 100, 1000, 10000} {
		out.Points = append(out.Points, SetupPoint{Keywords: n, Total: out.total(n), Extrapolated: true, Paper: paper[n]})
	}
	return out, nil
}

// setupFitKeywords is the larger of the two ruleset sizes rule
// preparation's cost model is fitted through; the smaller is one keyword.
const setupFitKeywords = 16

// prepareCell runs a real obfuscated rule encryption for n keywords (two
// endpoint garblings per keyword, one OT extension per endpoint, circuit
// verification and evaluation); NewMiddlebox builds F before the timer.
func prepareCell(n int) Cell {
	return Cell{fmt.Sprintf("prepare/%d", n), func(b *testing.B) {
		k, kRG, krand := bbcrypto.RandomBlock(), bbcrypto.RandomBlock(), bbcrypto.RandomBlock()
		req := ruleprep.Request{}
		for i := 0; i < n; i++ {
			var frag [tokenize.TokenSize]byte
			copy(frag[:], fmt.Sprintf("setup%03d", i))
			blk := rules.FragmentBlock(frag)
			req.Fragments = append(req.Fragments, blk)
			req.Tags = append(req.Tags, bbcrypto.MAC(kRG, blk))
		}
		mb, err := ruleprep.NewMiddlebox(req)
		if err != nil {
			b.Fatal(err)
		}
		epS, epR := ruleprep.NewEndpoint(k, kRG, krand), ruleprep.NewEndpoint(k, kRG, krand)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := ruleprep.RunLocal(epS, epR, mb); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

// total is the fit's setup time for n keywords.
func (r SetupResult) total(n int) time.Duration {
	return r.Fixed + time.Duration(n)*r.PerKeyword
}

// theSetupFit puts the line Fixed + n·PerKeyword through the prepare/1 and
// prepare/16 cells, once per process, for Table 2's setup rows and §7.2.2's
// table. Fixed is paid once a connection; a small run's average times n
// would charge it once per keyword.
var theSetupFit = sync.OnceValues(func() (SetupResult, error) {
	lo, hi := prepareCell(1), prepareCell(setupFitKeywords)
	res, err := run([]Cell{lo, hi})
	if err != nil {
		return SetupResult{}, err
	}
	t1, tHi := perOp(res[lo.Name]), perOp(res[hi.Name])
	// A negative slope is timer noise on a loaded host; the fixed part then
	// carries it all.
	per := max(0, (tHi-t1)/(setupFitKeywords-1))
	return SetupResult{Fixed: t1 - per, PerKeyword: per}, nil
})

// garbleCell garbles the rule-encryption circuit F once per op — an
// endpoint's per-fragment cost during setup — and reports what a gate-count
// regression would move: F's AND gates and the bytes of one garbled F.
var garbleCell = Cell{"setup/garble", func(b *testing.B) {
	f := ruleprep.F()
	b.ReportAllocs()
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		g, _, err := garble.Garble(f, ruleprep.FixedGarblingKey, bbcrypto.NewPRG(bbcrypto.Block{byte(i)}))
		if err != nil {
			b.Fatal(err)
		}
		size = g.Size()
	}
	b.ReportMetric(float64(f.NumAND()), "ANDs")
	b.ReportMetric(float64(size), "bytes/circuit")
}}

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
