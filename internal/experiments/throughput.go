// §7.2.3 middlebox throughput: BlindBox Detect over encrypted tokens vs a
// Snort-like plaintext IDS over the same traffic (paper: 166 Mbps vs
// 85 Mbps on one core — BlindBox wins because everything is exact-match
// against a precomputed structure).

package experiments

import (
	"fmt"
	"io"
	"sync"
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

// Throughput measures both engines over the same synthetic traffic.
func Throughput(opt ThroughputOptions) (ThroughputResult, error) {
	spec, _ := corpus.DatasetByName("Snort Emerging Threats (HTTP)")
	spec.NumRules = opt.Rules
	spec.P2Frac = 1.0 // pure exact-match set, as in the paper's run
	rs, err := spec.Generate(Seed)
	if err != nil {
		return ThroughputResult{}, err
	}
	traffic := corpus.SynthesizeText(newRand(), opt.TrafficBytes)

	res := ThroughputResult{Rules: len(rs.Rules), Mode: opt.Mode}
	res.BaselineMbps = baselineRate(rs, traffic)
	res.SenderMbps, res.BlindBoxMbps = blindboxRates(rs, opt.Mode, traffic)
	return res, nil
}

func baselineRate(rs *rules.Ruleset, traffic []byte) float64 {
	ids := baseline.New(rs)
	pipe := ids.NewPipeline()
	var header [40]byte
	process := func() {
		for off := 0; off < len(traffic); off += baseline.PacketSize {
			end := off + baseline.PacketSize
			if end > len(traffic) {
				end = len(traffic)
			}
			pipe.ProcessPacket(header, uint64(off%64), traffic[off:end])
		}
	}
	process() // warm up
	start := time.Now()
	process()
	return mbps(len(traffic), time.Since(start))
}

func blindboxRates(rs *rules.Ruleset, mode tokenize.Mode, traffic []byte) (senderMbps, mbMbps float64) {
	k := bbcrypto.DeriveBlock([]byte("throughput"), "k")
	sender := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolII, 0)
	// Sender rate: tokenize + encrypt.
	tk := tokenize.New(mode)
	start := time.Now()
	toks := tk.Append(traffic)
	toks = append(toks, tk.Flush()...)
	ets := sender.EncryptTokensInto(nil, toks)
	senderMbps = mbps(len(traffic), time.Since(start))

	// Middlebox rate: batched detection over the encrypted tokens, as the
	// middlebox scans one RecTokens record at a time. The rate is reported
	// against the traffic bytes those tokens represent, matching the
	// paper's Mbps-of-traffic metric.
	eng := detect.NewEngine(rs, core.DirectTokenKeys(k, rs, mode), detect.Config{
		Mode: mode, Protocol: dpienc.ProtocolII,
	})
	const batch = 512
	var scratch []detect.Event
	start = time.Now()
	for off := 0; off < len(ets); off += batch {
		end := off + batch
		if end > len(ets) {
			end = len(ets)
		}
		scratch = eng.ScanBatch(ets[off:end], scratch[:0])
	}
	mbMbps = mbps(len(traffic), time.Since(start))
	return senderMbps, mbMbps
}

func mbps(bytes int, d time.Duration) float64 {
	return float64(bytes) * 8 / 1e6 / d.Seconds()
}

// ThroughputScaling measures aggregate BlindBox detection over n parallel
// connections (one engine per connection, as in the middlebox's
// per-connection detection threads, §6). The paper reports per-core rates;
// this shows the rate scales with cores since connections share nothing.
func ThroughputScaling(opt ThroughputOptions, conns int) (float64, error) {
	spec, _ := corpus.DatasetByName("Snort Emerging Threats (HTTP)")
	spec.NumRules = opt.Rules
	spec.P2Frac = 1.0
	rs, err := spec.Generate(Seed)
	if err != nil {
		return 0, err
	}
	traffic := corpus.SynthesizeText(newRand(), opt.TrafficBytes)
	k := bbcrypto.DeriveBlock([]byte("throughput"), "k")
	sender := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolII, 0)
	toks := tokenize.TokenizeAll(opt.Mode, traffic)
	ets := sender.EncryptTokensInto(nil, toks)
	keys := core.DirectTokenKeys(k, rs, opt.Mode)

	engines := make([]*detect.Engine, conns)
	for i := range engines {
		engines[i] = detect.NewEngine(rs, keys, detect.Config{Mode: opt.Mode, Protocol: dpienc.ProtocolII})
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, eng := range engines {
		wg.Add(1)
		go func(eng *detect.Engine) {
			defer wg.Done()
			for i := range ets {
				eng.ProcessToken(ets[i])
			}
		}(eng)
	}
	wg.Wait()
	return mbps(len(traffic)*conns, time.Since(start)), nil
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
