// Figures 3 and 4: page download time for TLS vs BlindBox HTTPS (BB+TLS)
// at 20 Mbps × 10 ms and 1 Gbps × 10 ms, for whole pages and for the
// text/code subset.

package experiments

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dpienc"
	"repro/internal/httpsim"
	"repro/internal/netem"
	"repro/internal/tokenize"
)

// PageLoadRow is the measured load time of one page under both transports.
type PageLoadRow struct {
	Site string
	// WholeTLS/WholeBB: full-page load times.
	WholeTLS, WholeBB time.Duration
	// TextTLS/TextBB: text/code-only load times (what gates first render).
	TextTLS, TextBB time.Duration
}

// Overhead returns BB/TLS ratios.
func (r PageLoadRow) Overhead() (whole, text float64) {
	return float64(r.WholeBB) / float64(r.WholeTLS), float64(r.TextBB) / float64(r.TextTLS)
}

// PageLoad evaluates the five paper sites over the given link model. CPU
// rates for the two transports are measured on this machine, so the
// CPU-vs-link bottleneck crossover (the paper's Fig. 3 vs Fig. 4 story)
// emerges from real costs.
func PageLoad(link netem.Model, mode tokenize.Mode) ([]PageLoadRow, error) {
	tlsRate, bbRate, err := MeasureCPURates(mode)
	if err != nil {
		return nil, err
	}
	var rows []PageLoadRow
	for i, sp := range corpus.Sites {
		page := sp.Generate(Seed + int64(i))
		rows = append(rows, PageLoadRow{
			Site:     sp.Name,
			WholeTLS: loadTime(page, link, mode, false, tlsRate),
			WholeBB:  loadTime(page, link, mode, true, bbRate),
			TextTLS:  loadTime(page.TextCodeOnly(), link, mode, false, tlsRate),
			TextBB:   loadTime(page.TextCodeOnly(), link, mode, true, bbRate),
		})
	}
	return rows, nil
}

// loadTime computes the page load time: per resource one request RTT, and
// the response bytes (plus encrypted tokens under BlindBox) through the
// link, with the sender's CPU production rate as a second bottleneck.
func loadTime(page *httpsim.Page, link netem.Model, mode tokenize.Mode, blindbox bool, cpuTextRate float64) time.Duration {
	wire := page.TotalBytes()
	cpuBytes := 0
	if blindbox {
		tokens := countPageTokens(page, mode)
		wire += tokens * dpienc.CiphertextSize
		// The expensive CPU path is tokenize+encrypt over text bytes.
		cpuBytes = page.TextBytes()
	}
	m := link
	if blindbox {
		m.CPUBytesPerSec = cpuTextRate
	} else {
		m.CPUBytesPerSec = cpuTextRate // plain GCM rate for TLS
		cpuBytes = page.TotalBytes()
	}
	// Browsers fetch ~6 resources concurrently over a persistent
	// connection pool, so the serial round-trip count is resources/6.
	rounds := 1 + (len(page.Resources)-1)/6
	return m.TransferTime(wire, cpuBytes, rounds)
}

// countPageTokens tokenizes the page's text segments as the sender would.
func countPageTokens(page *httpsim.Page, mode tokenize.Mode) int {
	tk := tokenize.New(mode)
	n := 0
	for _, seg := range page.Flow() {
		if seg.Binary {
			n += len(tk.Skip(len(seg.Data)))
		} else {
			n += len(tk.Append(seg.Data))
		}
	}
	return n + len(tk.Flush())
}

// MeasureCPURates measures this machine's sender-side production rates in
// bytes/second: plain AES-GCM (the TLS bound) and the full BlindBox
// pipeline (tokenize + DPIEnc) for the given mode.
func MeasureCPURates(mode tokenize.Mode) (tlsRate, bbRate float64, err error) {
	cells := cpuCells(mode)
	res, err := run(cells)
	if err != nil {
		return 0, 0, err
	}
	return bytesPerSec(res[cells[0].Name]), bytesPerSec(res[cells[1].Name]), nil
}

// cpuSampleBytes is the text the CPU-rate cells process per op.
const cpuSampleBytes = 256 << 10

// cpuCells are the sender's CPU rates: cpu/gcm seals the sample, and
// senderCell(mode) runs it through the BlindBox pipeline.
func cpuCells(mode tokenize.Mode) []Cell {
	return []Cell{
		{"cpu/gcm", func(b *testing.B) { sealLoop(b, corpus.SynthesizeText(newRand(), cpuSampleBytes)) }},
		senderCell(mode),
	}
}

// senderCell is the sender's tokenize + encrypt rate: Fig. 3/4's CPU bound
// and §7.2.3's sender row.
func senderCell(mode tokenize.Mode) Cell {
	return Cell{"cpu/blindbox-" + mode.String(), func(b *testing.B) {
		text := corpus.SynthesizeText(newRand(), cpuSampleBytes)
		keys := bbcrypto.DeriveSessionKeys([]byte("cpu rate probe"))
		pipe := core.NewSenderPipeline(keys, core.Config{Protocol: dpienc.ProtocolII, Mode: mode})
		b.SetBytes(cpuSampleBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pipe.ProcessText(text)
		}
	}}
}

// PrintPageLoad renders a Fig. 3/4-style table.
func PrintPageLoad(w io.Writer, label string, rows []PageLoadRow) {
	fmt.Fprintf(w, "Figure %s: page load time, TLS vs BlindBox(BB)+TLS\n", label)
	t := newTable(w)
	t.row("Site", "Whole:TLS", "Whole:BB", "x", "Text:TLS", "Text:BB", "x")
	for _, r := range rows {
		ow, ot := r.Overhead()
		t.row(r.Site,
			fmtDuration(r.WholeTLS), fmtDuration(r.WholeBB), fmt.Sprintf("%.1fx", ow),
			fmtDuration(r.TextTLS), fmtDuration(r.TextBB), fmt.Sprintf("%.1fx", ot))
	}
	t.flush()
}
