package main

import (
	"crypto/subtle"
	"fmt"
	"net"
	"time"

	blindbox "repro"
	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/garble"
	"repro/internal/ot"
	"repro/internal/ruleprep"
	"repro/internal/rules"
	"repro/internal/tokenize"
	"repro/internal/transport"
)

// The functions in this file time single layers from outside, through
// their public functions, on seeded inputs of fixed size. They do not
// depend on the workload: every traced run reports all of them.

// layerInputs are the seeded inputs the layer measurements share.
type layerInputs struct {
	seed   int64
	text   []byte   // fresh corpus text with rules6 keywords planted
	chunks [][]byte // text in recordBytes pieces
	keys   bbcrypto.SessionKeys
	rules6 *rules.Ruleset
}

const layerTextBytes = 4 << 20

// newLayerInputs makes size bytes (a multiple of recordBytes) of text.
func newLayerInputs(seed int64, size int) (*layerInputs, error) {
	rs, err := parseRules6()
	if err != nil {
		return nil, err
	}
	in := &layerInputs{
		seed:   seed,
		text:   text(seed*1000+900, size, -1, 256<<10),
		keys:   bbcrypto.DeriveSessionKeys([]byte(fmt.Sprintf("benchmark layers %d", seed))),
		rules6: rs,
	}
	for off := 0; off < len(in.text); off += recordBytes {
		in.chunks = append(in.chunks, in.text[off:off+recordBytes])
	}
	return in, nil
}

// tokenBatches tokenizes the shared text record by record.
func (in *layerInputs) tokenBatches(mode tokenize.Mode) (batches [][]tokenize.Token, n int) {
	tk := tokenize.New(mode)
	for _, c := range in.chunks {
		toks := tk.Append(c)
		batches = append(batches, toks)
		n += len(toks)
	}
	return batches, n
}

// encryptedBatches runs the shared text through a sender pipeline.
func (in *layerInputs) encryptedBatches(cfg core.Config) (batches [][]dpienc.EncryptedToken, n int) {
	pipe := core.NewSenderPipeline(in.keys, cfg)
	pipe.SetResetInterval(1 << 40) // one salt epoch: engines below are never told of resets
	for _, c := range in.chunks {
		toks, _ := pipe.ProcessText(c)
		batches = append(batches, toks)
		n += len(toks)
	}
	return batches, n
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
func msOf(d time.Duration) float64         { return float64(d.Nanoseconds()) / 1e6 }

func measureTokenize(o *runOutcome, in *layerInputs) {
	for _, m := range []struct {
		mode tokenize.Mode
		name string
	}{{tokenize.Delimiter, "delim"}, {tokenize.Window, "window"}} {
		tk := tokenize.New(m.mode)
		n := 0
		before := mallocCount()
		t0 := time.Now()
		for _, c := range in.chunks {
			n += len(tk.Append(c))
		}
		n += len(tk.Flush())
		d := time.Since(t0)
		allocs := mallocCount() - before
		o.set("tokenize."+m.name+"_ns_per_byte", nsPer(d, len(in.text)))
		o.set("tokenize."+m.name+"_tokens_per_byte", float64(n)/float64(len(in.text)))
		if m.mode == tokenize.Delimiter {
			o.set("tokenize.allocs_per_record", float64(allocs)/float64(len(in.chunks)))
		}
	}
}

func measureDPIEnc(o *runOutcome, in *layerInputs) {
	batches, n := in.tokenBatches(tokenize.Delimiter)
	distinct := map[[tokenize.TokenSize]byte]struct{}{}
	for _, b := range batches {
		for _, t := range b {
			distinct[t.Text] = struct{}{}
		}
	}
	out := make([]dpienc.EncryptedToken, 0, 2*recordBytes)
	var asg []dpienc.TokenAssignment

	heap0, mallocs0 := liveHeap()
	s := dpienc.NewSender(in.keys.K, in.keys.KSSL, dpienc.ProtocolII, 0)
	var assign, encrypt time.Duration
	for i, b := range batches {
		t0 := time.Now()
		s.AccountBytes(len(in.chunks[i]))
		asg = s.AssignTokens(b, asg[:0])
		t1 := time.Now()
		s.EncryptAssigned(asg, out[:len(asg)])
		encrypt += time.Since(t1)
		assign += t1.Sub(t0)
	}
	mallocs1 := mallocCount()
	heap1, _ := liveHeap()
	o.set("dpienc.assign_ns_per_token", nsPer(assign, n))
	o.set("dpienc.encrypt_ns_per_token", nsPer(encrypt, n))
	o.set("dpienc.allocs_per_token", float64(mallocs1-mallocs0)/float64(n))
	o.set("dpienc.distinct_token_ratio", float64(len(distinct))/float64(n))
	o.set("dpienc.state_bytes_per_distinct_token", (float64(heap1)-float64(heap0))/float64(len(distinct)))
	s.Reset(0) // keeps s reachable until after the heap reading

	// Protocol III: the same assignment, two AES blocks per token.
	s3 := dpienc.NewSender(in.keys.K, in.keys.KSSL, dpienc.ProtocolIII, 0)
	var encrypt3 time.Duration
	for _, b := range batches {
		asg = s3.AssignTokens(b, asg[:0])
		t1 := time.Now()
		s3.EncryptAssigned(asg, out[:len(asg)])
		encrypt3 += time.Since(t1)
	}
	o.set("dpienc.p3_encrypt_ns_per_token", nsPer(encrypt3, n))
}

func measureCore(o *runOutcome, in *layerInputs) {
	cfg := core.DefaultConfig()
	newPipe := func() *core.SenderPipeline {
		p := core.NewSenderPipeline(in.keys, cfg)
		p.AutoTune() // what transport does for the default EncryptWorkers
		return p
	}
	var toks []dpienc.EncryptedToken

	pipe := newPipe()
	sent := make([][]dpienc.EncryptedToken, len(in.chunks))
	t0 := time.Now()
	for i, c := range in.chunks {
		toks, _ = pipe.ProcessTextInto(toks[:0], c)
		sent[i] = append(sent[i], toks...) // copying out is not sender work, but is two orders below it
	}
	o.set("core.sender_ns_per_byte", nsPer(time.Since(t0), len(in.text)))

	v := core.NewValidator(in.keys, cfg)
	t0 = time.Now()
	for i, c := range in.chunks {
		v.ReceiveTokens(sent[i])
		if err := v.ValidateText(c); err != nil {
			o.failf("core.validator: %v", err)
			break
		}
	}
	o.set("core.validator_ns_per_byte", nsPer(time.Since(t0), len(in.text)))

	const small = 256
	pipe = newPipe()
	records := 0
	t0 = time.Now()
	for off := 0; off+small <= 1<<20; off += small {
		toks, _ = pipe.ProcessTextInto(toks[:0], in.text[off:off+small])
		records++
	}
	o.set("core.sender_small_ns_per_record", nsPer(time.Since(t0), records))

	pipe = newPipe()
	t0 = time.Now()
	for i := 0; i < 200000; i++ {
		toks, _ = pipe.ProcessBinaryInto(toks[:0], recordBytes)
	}
	o.set("core.binary_ns_per_record", nsPer(time.Since(t0), 200000))
}

// measureTokenWire times token marshalling and counts its bytes per token.
func measureTokenWire(o *runOutcome, in *layerInputs) error {
	for _, p := range []struct {
		cfg  core.Config
		name string
	}{
		{core.DefaultConfig(), "p2"},
		{core.Config{Protocol: dpienc.ProtocolIII, Mode: tokenize.Window}, "p3"},
	} {
		p3 := p.cfg.Protocol == dpienc.ProtocolIII
		batches, n := in.encryptedBatches(p.cfg)
		bodies := make([][]byte, len(batches))
		wire := 0
		t0 := time.Now()
		for i, b := range batches {
			bodies[i] = transport.MarshalTokens(b, p3)
		}
		marshal := time.Since(t0)
		t0 = time.Now()
		for _, body := range bodies {
			wire += len(body) - 4
			if _, err := transport.UnmarshalTokens(body, p3); err != nil {
				return err
			}
		}
		unmarshal := time.Since(t0)
		o.set("transport.wire_bytes_per_token."+p.name, float64(wire)/float64(n))
		if !p3 {
			o.set("transport.marshal_ns_per_token", nsPer(marshal, n))
			o.set("transport.unmarshal_ns_per_token", nsPer(unmarshal, n))
		}
	}
	return nil
}

// measureRecordPath times the AEAD and the record framing over loopback.
func measureRecordPath(o *runOutcome, in *layerInputs) error {
	// AEAD exactly as Conn.write / readRecord use it: a fresh output per
	// record, kind byte prepended, record type as additional data.
	aead := bbcrypto.NewGCM(in.keys.KSSL)
	nonce := make([]byte, 12)
	ad := []byte{byte(transport.RecData)}
	pt := make([]byte, 1+recordBytes)
	sealed := make([][]byte, len(in.chunks))
	t0 := time.Now()
	for i, c := range in.chunks {
		copy(pt[1:], c)
		sealed[i] = aead.Seal(nil, nonce, pt, ad)
	}
	o.set("transport.seal_ns_per_byte", nsPer(time.Since(t0), len(in.text)))
	t0 = time.Now()
	for _, ct := range sealed {
		if _, err := aead.Open(nil, nonce, ct, ad); err != nil {
			return err
		}
	}
	o.set("transport.open_ns_per_byte", nsPer(time.Since(t0), len(in.text)))

	a, b, err := tcpPair()
	if err != nil {
		return err
	}
	defer a.Close()
	defer b.Close()
	body := in.text[:256]
	const trips = 20000
	t0 = time.Now()
	for i := 0; i < trips; i++ {
		if err := transport.WriteRecord(a, transport.RecData, body); err != nil {
			return err
		}
		if _, _, err := transport.ReadRecord(b); err != nil {
			return err
		}
	}
	o.set("transport.record_rw_ns", nsPer(time.Since(t0), trips))
	return nil
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair() (net.Conn, net.Conn, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	b, err := ln.Accept()
	if err != nil {
		_ = a.Close()
		return nil, nil, err
	}
	return a, b, nil
}

// measureDirectConn measures what needs a live endpoint pair with no
// middlebox: the bare handshake and the allocations behind one Conn.Write.
func measureDirectConn(o *runOutcome, in *layerInputs) error {
	d, err := deploy(stackP2Delim, true, nil, func(conn *blindbox.Conn) error {
		buf := make([]byte, 64<<10)
		for {
			if _, err := conn.Read(buf); err != nil {
				return nil // the client closing is the end of the measurement
			}
		}
	})
	if err != nil {
		return err
	}
	defer d.close()

	var hs []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		conn, _, err := d.dial()
		if err != nil {
			return err
		}
		hs = append(hs, msOf(time.Since(t0)))
		_ = conn.Close()
	}
	o.set("transport.handshake_ms", median(hs))

	conn, _, err := d.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	i := 0
	write := func(size int) func() {
		return func() {
			off := (i * size) % (len(in.text) - size)
			i++
			if _, err := conn.Write(in.text[off : off+size]); err != nil {
				o.failf("direct write: %v", err)
			}
		}
	}
	o.set("transport.conn_write_allocs.16k", allocsPer(100, write(recordBytes)))
	o.set("transport.conn_write_allocs.256", allocsPer(2000, write(256)))
	return nil
}

// etSpec has the protocol-class mix of the paper's largest ruleset (Snort
// Emerging Threats, Table 1); its size is set per measurement.
func etSpec(n int) corpus.RulesetSpec {
	return corpus.RulesetSpec{Name: fmt.Sprintf("ET-like %d", n), NumRules: n, P1Frac: 0.016, P2Frac: 0.42, AvgKeywords: 3}
}

func measureDetect(o *runOutcome, in *layerInputs) error {
	const batch = 512
	scan := func(eng *detect.Engine, batches [][]dpienc.EncryptedToken) (time.Duration, uint64) {
		var evs []detect.Event
		before := mallocCount()
		t0 := time.Now()
		for _, b := range batches {
			for len(b) > 0 {
				k := batch
				if k > len(b) {
					k = len(b)
				}
				evs = eng.ScanBatch(b[:k], evs[:0])
				b = b[k:]
			}
		}
		return time.Since(t0), mallocCount() - before
	}

	p2 := core.DefaultConfig()
	batches, n := in.encryptedBatches(p2)
	for _, size := range []int{6, 300, 3000} {
		rs := in.rules6
		if size != 6 {
			var err error
			if rs, err = etSpec(size).Generate(in.seed); err != nil {
				return err
			}
		}
		keys := core.DirectTokenKeys(in.keys.K, rs, p2.Mode)
		t0 := time.Now()
		eng := core.NewDetectEngine(rs, keys, p2, nil)
		build := time.Since(t0)
		d, allocs := scan(eng, batches)
		o.set(fmt.Sprintf("detect.scan_ns_per_token.r%d", size), nsPer(d, n))
		if size == 3000 {
			o.set("detect.engine_build_ms.r3000", msOf(build))
			o.set("detect.fragments.r3000", float64(eng.NumFragments()))
			o.set("detect.allocs_per_token", float64(allocs)/float64(n))
		}
	}

	p3 := core.Config{Protocol: dpienc.ProtocolIII, Mode: tokenize.Window}
	batches, n = in.encryptedBatches(p3)
	eng := core.NewDetectEngine(in.rules6, core.DirectTokenKeys(in.keys.K, in.rules6, p3.Mode), p3, nil)
	d, _ := scan(eng, batches)
	o.set("detect.p3_scan_ns_per_token.r6", nsPer(d, n))
	return nil
}

// measureCircuit counts the gates of the rule-encryption circuit F.
func measureCircuit(o *runOutcome) {
	f := ruleprep.F()
	o.set("circuit.f_gates", float64(len(f.Gates)))
	o.set("circuit.f_and_gates", float64(f.NumAND()))
}

// measureSetupLayers times the §3.3 building blocks directly: garbling and
// evaluating the rule-encryption circuit F, shipping one garbled circuit,
// base OT, OT extension, and the in-process RunLocal.
func measureSetupLayers(o *runOutcome, in *layerInputs) error {
	f := ruleprep.F()

	const reps = 3
	var garbleMS, evalMS, wireMS []float64
	var g *garble.Garbled
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		gi, labels, err := garble.Garble(f, ruleprep.FixedGarblingKey, bbcrypto.NewPRG(in.keys.KRand))
		if err != nil {
			return err
		}
		garbleMS = append(garbleMS, msOf(time.Since(t0)))
		g = gi
		inputs := make([]bbcrypto.Block, f.NInputs)
		for w := range inputs {
			inputs[w] = labels.For(w, false)
		}
		t0 = time.Now()
		if _, err := garble.Eval(f, g, inputs); err != nil {
			return err
		}
		evalMS = append(evalMS, msOf(time.Since(t0)))
	}
	o.set("garble.garble_ms_per_circuit", median(garbleMS))
	o.set("garble.eval_ms_per_circuit", median(evalMS))
	o.set("garble.bytes_per_circuit", float64(g.Size()))

	// One circuit's trip from endpoint to middlebox: marshal, one record
	// over loopback TCP, unmarshal, and the equality check against the
	// other endpoint's copy.
	a, b, err := tcpPair()
	if err != nil {
		return err
	}
	defer a.Close()
	defer b.Close()
	for i := 0; i < reps; i++ {
		type rec struct {
			body []byte
			err  error
		}
		got := make(chan rec, 1)
		t0 := time.Now()
		go func() {
			_, body, err := transport.ReadRecord(b)
			got <- rec{body, err}
		}()
		if err := transport.WriteRecord(a, transport.RecGarble, g.Marshal()); err != nil {
			return err
		}
		r := <-got
		if r.err != nil {
			return r.err
		}
		g2, err := garble.Unmarshal(r.body)
		if err != nil {
			return err
		}
		if !garble.Equal(g, g2) {
			return fmt.Errorf("garbled circuit changed in transit")
		}
		wireMS = append(wireMS, msOf(time.Since(t0)))
	}
	o.set("garble.wire_ms_per_circuit", median(wireMS))

	// OT as one rule-preparation leg runs it: one base phase, then the
	// extension over 256 wires per fragment.
	const frags = 6
	pairs := make([][2]bbcrypto.Block, frags*256)
	choices := make([]bool, len(pairs))
	for i := range pairs {
		pairs[i] = [2]bbcrypto.Block{bbcrypto.RandomBlock(), bbcrypto.RandomBlock()}
		choices[i] = i%3 == 0
	}
	t0 := time.Now()
	recv, msgAs, err := ot.NewExtReceiver()
	if err != nil {
		return err
	}
	snd := ot.NewExtSender()
	msgBs, err := snd.BaseRespond(msgAs)
	if err != nil {
		return err
	}
	base := time.Since(t0)
	t0 = time.Now()
	u, err := recv.Extend(msgBs, choices) // also derives the receiver's base keys
	if err != nil {
		return err
	}
	masked, err := snd.Send(u, pairs)
	if err != nil {
		return err
	}
	got, err := recv.Receive(masked, choices)
	if err != nil {
		return err
	}
	ext := time.Since(t0)
	for i, c := range choices {
		want := pairs[i][0]
		if c {
			want = pairs[i][1]
		}
		if subtle.ConstantTimeCompare(got[i][:], want[:]) != 1 {
			return fmt.Errorf("OT extension delivered the wrong label for wire %d", i)
		}
	}
	o.set("ot.base_ms", msOf(base))
	o.set("ot.ext_ms_per_fragment", msOf(ext)/frags)

	rg, err := blindbox.NewRuleGenerator("LayerRG")
	if err != nil {
		return err
	}
	req := core.BuildRequest(rg.Sign(in.rules6), tokenize.Delimiter)
	req.Fragments, req.Tags = req.Fragments[:2], req.Tags[:2]
	mb, err := ruleprep.NewMiddlebox(req)
	if err != nil {
		return err
	}
	epS := ruleprep.NewEndpoint(in.keys.K, rg.TagKey(), in.keys.KRand)
	epR := ruleprep.NewEndpoint(in.keys.K, rg.TagKey(), in.keys.KRand)
	t0 = time.Now()
	keys, _, err := ruleprep.RunLocal(epS, epR, mb)
	if err != nil {
		return err
	}
	o.set("ruleprep.local_ms_per_fragment", msOf(time.Since(t0))/2)
	for i, k := range keys {
		var frag [tokenize.TokenSize]byte
		copy(frag[:], req.Fragments[i][:])
		want := dpienc.ComputeTokenKey(in.keys.K, frag)
		if k == nil || subtle.ConstantTimeCompare(k[:], want[:]) != 1 {
			return fmt.Errorf("RunLocal produced a wrong token key for fragment %d", i)
		}
	}
	return nil
}
