// §7.2.3 middlebox throughput: BlindBox Detect over encrypted tokens vs a
// Snort-like plaintext IDS over the same traffic (paper: 166 Mbps vs
// 85 Mbps on one core — BlindBox wins because everything is exact-match
// against a precomputed structure).

package experiments

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/rules"
	"repro/internal/tokenize"
)

// ThroughputResult compares single-core detection rates in Mbps of
// traffic inspected.
type ThroughputResult struct {
	Rules int
	Mode  tokenize.Mode
	// BlindBoxMbps is the middlebox detection rate over encrypted tokens.
	BlindBoxMbps float64
	// BaselineMbps is the Snort-like plaintext inspection rate.
	BaselineMbps float64
	// SenderMbps is the client-side tokenize+encrypt rate (the Fig. 4
	// bottleneck).
	SenderMbps float64
}

// ThroughputOptions sizes the experiment.
type ThroughputOptions struct {
	Rules        int
	TrafficBytes int
	Mode         tokenize.Mode
}

// DefaultThroughputOptions mirrors the paper's 3K-rule synthetic-traffic
// run at benchmark-friendly size.
func DefaultThroughputOptions() ThroughputOptions {
	return ThroughputOptions{Rules: 3000, TrafficBytes: 4 << 20, Mode: tokenize.Delimiter}
}

// Throughput measures both engines over the same synthetic traffic, and
// the sender's tokenize+encrypt rate.
func Throughput(opt ThroughputOptions) (ThroughputResult, error) {
	sender := senderCell(opt.Mode)
	res, err := run(append(throughputCells(opt), sender))
	if err != nil {
		return ThroughputResult{}, err
	}
	mbps := func(name string) float64 { return bytesPerSec(res[name]) * 8 / 1e6 }
	return ThroughputResult{
		Rules: opt.Rules, Mode: opt.Mode,
		BlindBoxMbps: mbps("throughput/blindbox"),
		BaselineMbps: mbps("throughput/baseline"),
		SenderMbps:   mbps(sender.Name),
	}, nil
}

// throughputFixture is the experiment's workload: the rule set, the
// traffic, the traffic's encrypted tokens and the token keys a middlebox
// holds for the rule set.
type throughputFixture struct {
	rs      *rules.Ruleset
	traffic []byte
	ets     []dpienc.EncryptedToken
	keys    detect.TokenKeys
}

func newThroughputFixture(opt ThroughputOptions) (*throughputFixture, error) {
	spec, _ := corpus.DatasetByName("Snort Emerging Threats (HTTP)")
	spec.NumRules = opt.Rules
	spec.P2Frac = 1.0 // pure exact-match set, as in the paper's run
	rs, err := spec.Generate(Seed)
	if err != nil {
		return nil, err
	}
	traffic := corpus.SynthesizeText(newRand(), opt.TrafficBytes)
	k := bbcrypto.DeriveBlock([]byte("throughput"), "k")
	sender := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolII, 0)
	return &throughputFixture{
		rs:      rs,
		traffic: traffic,
		ets:     sender.EncryptTokensInto(nil, tokenize.TokenizeAll(opt.Mode, traffic)),
		keys:    core.DirectTokenKeys(k, rs, opt.Mode),
	}, nil
}

// throughputCells are the single-core detection rates, in bytes of
// traffic inspected: BlindBox Detect over the encrypted tokens and the
// Snort-like baseline over the plaintext. Both build the fixture once.
func throughputCells(opt ThroughputOptions) []Cell {
	fixture := sync.OnceValues(func() (*throughputFixture, error) { return newThroughputFixture(opt) })
	load := func(b *testing.B) *throughputFixture {
		fx, err := fixture()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(fx.traffic)))
		return fx
	}
	return []Cell{
		{"throughput/blindbox", func(b *testing.B) {
			fx := load(b)
			eng := detect.NewEngine(fx.rs, fx.keys, detect.Config{Mode: opt.Mode, Protocol: dpienc.ProtocolII})
			var scratch []detect.Event
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scratch = scanAll(eng, fx.ets, scratch)
			}
		}},
		{"throughput/baseline", func(b *testing.B) {
			fx := load(b)
			pipe := baseline.New(fx.rs).NewPipeline()
			var header [40]byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for off := 0; off < len(fx.traffic); off += baseline.PacketSize {
					end := min(off+baseline.PacketSize, len(fx.traffic))
					pipe.ProcessPacket(header, uint64(off%64), fx.traffic[off:end])
				}
			}
		}},
	}
}

// scanAll runs eng over ets in 512-token batches, as the middlebox scans
// one RecTokens record at a time, and returns scratch reused for events.
func scanAll(eng *detect.Engine, ets []dpienc.EncryptedToken, scratch []detect.Event) []detect.Event {
	const batch = 512
	for off := 0; off < len(ets); off += batch {
		scratch = eng.ScanBatch(ets[off:min(off+batch, len(ets))], scratch[:0])
	}
	return scratch
}

// ThroughputScaling measures aggregate BlindBox detection over n parallel
// connections (one engine per connection, as in the middlebox's
// per-connection detection threads, §6), each scanning as the
// single-core cell does. The paper reports per-core rates; this shows the
// rate scales with cores since connections share nothing.
func ThroughputScaling(opt ThroughputOptions, conns int) (float64, error) {
	fx, err := newThroughputFixture(opt)
	if err != nil {
		return 0, err
	}
	engines := make([]*detect.Engine, conns)
	for i := range engines {
		engines[i] = detect.NewEngine(fx.rs, fx.keys, detect.Config{Mode: opt.Mode, Protocol: dpienc.ProtocolII})
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, eng := range engines {
		wg.Add(1)
		go func(eng *detect.Engine) {
			defer wg.Done()
			scanAll(eng, fx.ets, nil)
		}(eng)
	}
	wg.Wait()
	return float64(len(fx.traffic)*conns) * 8 / 1e6 / time.Since(start).Seconds(), nil
}

// PrintThroughput renders the comparison.
func PrintThroughput(w io.Writer, r ThroughputResult) {
	fmt.Fprintf(w, "§7.2.3 middlebox throughput, %d rules, %s tokens (single core)\n", r.Rules, r.Mode)
	t := newTable(w)
	t.row("Engine", "rate", "paper")
	t.row("BlindBox Detect (encrypted)", fmt.Sprintf("%.0f Mbps", r.BlindBoxMbps), "166-186 Mbps")
	t.row("Snort-like baseline (plaintext)", fmt.Sprintf("%.0f Mbps", r.BaselineMbps), "85 Mbps")
	t.row("Sender tokenize+encrypt", fmt.Sprintf("%.0f Mbps", r.SenderMbps), "(Fig. 4 CPU bound)")
	t.flush()
	if r.BlindBoxMbps >= 100 {
		fmt.Fprintln(w, "shape: BlindBox detection clears the paper's bar (competitive with deployed IDS, which peak under 100 Mbps)")
	} else {
		fmt.Fprintln(w, "shape: WARNING — BlindBox detection below the paper's 100 Mbps deployment bar")
	}
	fmt.Fprintln(w, "note: the plaintext baseline omits Snort's preprocessors/reassembly/eventing, so its absolute")
	fmt.Fprintln(w, "      rate exceeds real Snort deployments (see EXPERIMENTS.md); per-engine costs match Table 2.")
}
