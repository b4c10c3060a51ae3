package main

import (
	"fmt"
	"runtime"
	"time"

	blindbox "repro"
	"repro/internal/bbcrypto"
	"repro/internal/corpus"
)

// recordBytes is the application write size of the bulk workloads; it
// equals the transport's data-record cap, so one Write is one data record.
const recordBytes = 16 << 10

// ruleKeywords are the six rules6 keywords, planted round-robin.
var ruleKeywords = []string{"bbxatk01", "bbxexf02", "bbxhdr03", "bbxpay04", "bbxcnc05", "bbxbot06"}

// appWrite is one application-level Write on a connection.
type appWrite struct {
	s2c    bool // written by the server side
	binary bool // WriteBinary: SSL-protected but not tokenized
	opEnd  bool // the client's operation completes once this entry has arrived
	data   []byte
}

// plan is the seeded input of one workload: what every connection writes,
// in order. The program under test receives only these bytes.
type plan struct {
	// scripts holds one entry per connection. Persistent workloads play
	// scripts[i] on connection i; with perFlow set every script is its
	// own short connection, dialled inside the timed region, and the last
	// script is the warm-up flow.
	scripts [][]appWrite
	// warmEnd: script entries before this index are warm-up (persistent).
	warmEnd int
	perFlow bool
	genTime time.Duration
}

// spec describes one workload; gen makes its seeded plan for n clients.
type spec struct {
	name  string
	why   string
	stack stack
	gen   func(seed int64, clients int) *plan
}

var (
	stackP2Delim  = stack{core: blindbox.DefaultConfig()}
	stackP3Window = stack{core: blindbox.Config{Protocol: blindbox.ProtocolIII, Mode: blindbox.WindowTokens}, secondary: true}
)

// workloads is the benchmark's workload table; BENCHMARK.json lists the
// same names and rationales (bench_test.go checks there is no drift). The
// sizes give a round of 2.5 to 3.5 s on the 2-core host the benchmark was
// sized on; they are fixed work and must not be tuned to a change.
var workloads = []spec{
	{
		name:  "bulk_text",
		why:   "text upload, Protocol II/delimiter: tokenize + salt assignment + DPIEnc AES at sender and validator are ~75% of the CPU, sockets and token marshalling ~20%; sender-pipeline changes claim here",
		stack: stackP2Delim,
		gen: func(seed int64, n int) *plan {
			return genBulk(seed, n, bulkShape{opBytes: 1 << 20, ops: 14, hitStride: 1 << 20})
		},
	},
	{
		name:  "bulk_binary",
		why:   "WriteBinary upload: no tokens, so tokenize/dpienc/detect are bypassed and AEAD, record buffers, socket writes and middlebox forward do all the work; sender-pipeline changes must not move it",
		stack: stackP2Delim,
		gen: func(seed int64, n int) *plan {
			return genBulk(seed, n, bulkShape{binary: true, opBytes: 64 << 20, ops: 11})
		},
	},
	{
		name:  "bulk_window_p3",
		why:   "Protocol III + window tokens + secondary IDS: 1 token/byte at 29 B/token (vs 0.5 at 13), so assignment, AES, marshalling and socket bytes grow 2-5x; catches a delimiter-path gain that costs this path",
		stack: stackP3Window,
		gen: func(seed int64, n int) *plan {
			return genBulk(seed, n, bulkShape{opBytes: 192 << 10, ops: 14, hitStride: 256 << 10})
		},
	},
	{
		name:  "rr_small",
		why:   "closed-loop 256 B request/response on persistent connections: fixed per-record cost (buffers, two socket writes per record, barrier, hand-offs) dominates; record-path changes claim here",
		stack: stackP2Delim,
		gen: func(seed int64, n int) *plan {
			return genRR(seed, n, 256, 8000, 500, 1000)
		},
	},
	{
		name:  "short_flows",
		why:   "connection per request (Dial with rule preparation on both legs, 512 B up, 16 KiB down, close): garble/OT/label transfer/circuit evaluation do the work; circuit-shrink changes claim here",
		stack: stackP2Delim,
		gen: func(seed int64, n int) *plan {
			return genFlows(seed, n, 2, 512, 16<<10)
		},
	},
}

// plan generates w's seeded inputs for the host's client count and times
// the generation, which counts toward setup_s.
func (w *spec) plan(seed int64) *plan {
	t0 := time.Now()
	p := w.gen(seed, clientCount())
	p.genTime = time.Since(t0)
	return p
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// clientCount is the load cap: min(2, nproc) closed-loop clients.
func clientCount() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// text synthesizes n bytes of fresh corpus text (never a cycled buffer:
// DPIEnc state grows with distinct tokens, and cycling would hide that),
// tagged at offset 0 and with one rule keyword planted per stride bytes.
func text(seed int64, n, tag, stride int) []byte {
	var opts []corpus.TextOption
	if tag >= 0 {
		opts = append(opts, corpus.WithHit(0, streamTag(tag)))
	}
	if stride > 0 {
		for at, k := stride/2, 0; at+10 <= n; at, k = at+stride, k+1 {
			opts = append(opts, corpus.WithHit(at, []byte(" "+ruleKeywords[k%len(ruleKeywords)]+" ")))
		}
	}
	return corpus.SynthesizeTextSeeded(seed, n, opts...)
}

type bulkShape struct {
	binary    bool
	opBytes   int // one operation: this many bytes uploaded, then acknowledged
	ops       int // timed operations per connection per round; one more warms up
	hitStride int
}

// genBulk: every connection uploads 1+ops objects of opBytes in recordBytes
// writes; the server acknowledges each object once it has all of it. The
// first object is the warm-up.
func genBulk(seed int64, conns int, sh bulkShape) *plan {
	perOp := sh.opBytes/recordBytes + 1
	p := &plan{warmEnd: perOp}
	var cycle []byte
	if sh.binary {
		// No tokens are formed from binary payload, so cycling one
		// incompressible buffer is harmless here.
		cycle = make([]byte, 16<<20)
		var s bbcrypto.Block
		copy(s[:], fmt.Sprintf("bulk_binary %d", seed))
		_, _ = bbcrypto.NewPRG(s).Read(cycle) // PRG.Read never fails
	}
	for c := 0; c < conns; c++ {
		total := (1 + sh.ops) * sh.opBytes
		var payload []byte
		if !sh.binary {
			payload = text(seed*1000+int64(c), total, c, sh.hitStride)
		}
		var sc []appWrite
		for off := 0; off < total; off += recordBytes {
			switch {
			case !sh.binary:
				sc = append(sc, appWrite{data: payload[off : off+recordBytes]})
			case off == 0:
				first := append([]byte(nil), cycle[:recordBytes]...)
				copy(first, streamTag(c))
				sc = append(sc, appWrite{binary: true, data: first})
			default:
				at := off % len(cycle)
				sc = append(sc, appWrite{binary: true, data: cycle[at : at+recordBytes]})
			}
			if (off+recordBytes)%sh.opBytes == 0 {
				ack := fmt.Sprintf("ack stream %06d through byte %012d\n", c, off+recordBytes)
				sc = append(sc, appWrite{s2c: true, opEnd: true, data: []byte(ack)})
			}
		}
		p.scripts = append(p.scripts, sc)
	}
	return p
}

// genRR: every connection does warm+trips closed-loop round trips of one
// size-byte text request answered by one size-byte text response.
func genRR(seed int64, conns, size, trips, warm, hitEvery int) *plan {
	p := &plan{warmEnd: 2 * warm}
	for c := 0; c < conns; c++ {
		n := (warm + trips) * size
		reqs := text(seed*1000+int64(c), n, c, hitEvery*size)
		resps := text(seed*1000+500+int64(c), n, -1, 0)
		var sc []appWrite
		for off := 0; off < n; off += size {
			sc = append(sc,
				appWrite{data: reqs[off : off+size]},
				appWrite{s2c: true, opEnd: true, data: resps[off : off+size]})
		}
		p.scripts = append(p.scripts, sc)
	}
	return p
}

// genFlows: perClient short connections per client plus one warm-up flow
// (the last script): a req-byte request, a resp-byte response, close. One
// keyword is planted in every request.
func genFlows(seed int64, clients, perClient, req, resp int) *plan {
	p := &plan{perFlow: true}
	flows := clients*perClient + 1
	reqs := text(seed*1000, flows*req, -1, req)
	resps := text(seed*1000+500, flows*resp, -1, 0)
	for f := 0; f < flows; f++ {
		r := reqs[f*req : (f+1)*req]
		copy(r, streamTag(f))
		p.scripts = append(p.scripts, []appWrite{
			{data: r},
			{s2c: true, opEnd: true, data: resps[f*resp : (f+1)*resp]},
		})
	}
	return p
}
