package main

import (
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	blindbox "repro"
	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/garble"
	"repro/internal/obs"
	"repro/internal/ot"
	"repro/internal/ruleprep"
	"repro/internal/tokenize"
	"repro/internal/transport"
)

// The replay pushes a workload's application writes, record by record,
// through the public layer functions in the order Conn.write,
// middlebox.forward and Conn.readRecord call them, over real loopback
// sockets, and records one span around every call. The spans give each
// layer's self time along the path; their sum, per payload byte, is
// compared with the untraced run's CPU bill (trace.coverage_ratio).

// Layers of the replay path, in call order. layerExtra spans are recorded
// but are not part of the path (the same tokens scanned against a
// 3000-rule engine: the ruleset-size axis no live workload can carry yet).
const (
	layerTokenize = iota
	layerAssign
	layerEncrypt
	layerMarshal
	layerSeal
	layerSocket
	layerUnmarshal
	layerScan
	layerValidate
	layerOpen
	layerGarble
	layerGarbleWire
	layerOTBase
	layerOTExt
	layerRuleEnc
	numPathLayers
	layerScan3000 = numPathLayers
	layerRecord   = numPathLayers + 1 // the root span of one application write
)

var layerNames = [...]string{
	layerTokenize:   "tokenize",
	layerAssign:     "dpienc.assign",
	layerEncrypt:    "dpienc.encrypt",
	layerMarshal:    "transport.marshal",
	layerSeal:       "transport.seal",
	layerSocket:     "socket",
	layerUnmarshal:  "transport.unmarshal",
	layerScan:       "detect.scan",
	layerValidate:   "core.validate",
	layerOpen:       "transport.open",
	layerGarble:     "garble",
	layerGarbleWire: "garble.wire",
	layerOTBase:     "ot.base",
	layerOTExt:      "ot.ext",
	layerRuleEnc:    "ruleprep.rule_enc",
	layerScan3000:   "detect.scan.r3000",
	layerRecord:     "record",
}

// span is one recorded call: which layer, for which application write,
// when, for how long, and how much work it covered.
type span struct {
	layer, seq  int
	start, dur  int64 // ns since the tracer's base
	bytes, toks int
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	base  time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) end(layer, seq int, start int64, bytes, toks int) {
	t.spans = append(t.spans, span{layer, seq, start, t.now() - start, bytes, toks})
}

// selfTimes returns, per layer, the summed self time: a layer span has no
// children, so its self time is its duration; the record span's self time
// is its duration less its children — the replay's own glue.
func (t *tracer) selfTimes() (self [layerRecord + 1]int64) {
	for _, s := range t.spans {
		self[s.layer] += s.dur
		if s.layer != layerRecord {
			self[layerRecord] -= s.dur
		}
	}
	return self
}

// write stores the spans as JSON lines in the obs.Span schema, so that
// `bbtrace -spans` reads them. Spans of one record share Flow (its
// sequence number) and hang under its record span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewJSONLSink(f)
	baseNS := t.base.UnixNano()
	root := map[int]uint64{}
	for i, s := range t.spans {
		id := uint64(i + 1)
		if s.layer == layerRecord {
			root[s.seq] = id
		}
	}
	for i, s := range t.spans {
		sp := obs.Span{
			SpanID: uint64(i + 1), Party: "replay", Flow: uint64(s.seq), Name: layerNames[s.layer],
			Start: baseNS + s.start, Dur: s.dur, Bytes: s.bytes, Tokens: s.toks,
		}
		if s.layer != layerRecord {
			sp.Parent = root[s.seq]
		}
		sink.Emit(sp)
	}
	if err := sink.Close(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// hop is one socket leg of the replay: records written at one end are read
// by a goroutine at the other, so a record larger than the socket buffers
// cannot deadlock the replaying goroutine.
type hop struct {
	w, r net.Conn
	recs chan hopRecord
}

type hopRecord struct {
	typ  transport.RecordType
	body []byte
	err  error
}

func newHop() (*hop, error) {
	w, r, err := tcpPair()
	if err != nil {
		return nil, err
	}
	h := &hop{w: w, r: r, recs: make(chan hopRecord)}
	go func() {
		defer close(h.recs)
		for {
			typ, body, err := transport.ReadRecord(r)
			h.recs <- hopRecord{typ, body, err}
			if err != nil {
				return
			}
		}
	}()
	return h, nil
}

// carry writes one record and returns it as read at the far end.
func (h *hop) carry(typ transport.RecordType, body []byte) ([]byte, error) {
	if err := transport.WriteRecord(h.w, typ, body); err != nil {
		return nil, err
	}
	rec := <-h.recs
	return rec.body, rec.err
}

// close ends the reader goroutine and waits for it.
func (h *hop) close() {
	_ = h.w.Close()
	_ = h.r.Close()
	for range h.recs {
	}
}

// replayDir is the state of one connection direction: the sender's
// tokenizer and DPIEnc state, the middlebox's engine, the receiver's
// validator, and the two socket legs between them.
type replayDir struct {
	cfg      core.Config
	p3       bool
	dirByte  byte
	tk       *tokenize.Tokenizer
	enc      *dpienc.Sender
	val      *core.Validator
	eng      *detect.Engine
	eng3000  *detect.Engine
	aead     cipher.AEAD
	seq      uint64
	up, down *hop
	asg      []dpienc.TokenAssignment
	out      []dpienc.EncryptedToken
	evs      []detect.Event
	events   int
}

func newReplayDir(st stack, keys bbcrypto.SessionKeys, rs *blindbox.Ruleset, big *blindbox.Ruleset, s2c bool) (*replayDir, error) {
	d := &replayDir{
		cfg:  st.core,
		p3:   st.core.Protocol == dpienc.ProtocolIII,
		tk:   tokenize.New(st.core.Mode),
		enc:  dpienc.NewSender(keys.K, keys.KSSL, st.core.Protocol, st.core.Salt0),
		val:  core.NewValidator(keys, st.core),
		eng:  core.NewDetectEngine(rs, core.DirectTokenKeys(keys.K, rs, st.core.Mode), st.core, nil),
		aead: bbcrypto.NewGCM(keys.KSSL),
	}
	if s2c {
		d.dirByte = 1
	}
	if big != nil {
		d.eng3000 = core.NewDetectEngine(big, core.DirectTokenKeys(keys.K, big, st.core.Mode), st.core, nil)
	}
	var err error
	if d.up, err = newHop(); err != nil {
		return nil, err
	}
	if d.down, err = newHop(); err != nil {
		d.up.close()
		return nil, err
	}
	return d, nil
}

func (d *replayDir) close() {
	d.up.close()
	d.down.close()
}

func (d *replayDir) nonce() []byte {
	n := make([]byte, 12)
	n[0] = d.dirByte
	binary.BigEndian.PutUint64(n[4:], d.seq)
	return n
}

// record replays one application write end to end.
func (d *replayDir) record(t *tracer, seq int, w *appWrite) error {
	root := t.now()
	n := len(w.data)

	// Sender, as Conn.write: account, tokenize, assign salts, encrypt.
	t0 := t.now()
	var toks []tokenize.Token
	if w.binary {
		toks = d.tk.Skip(n)
	} else {
		toks = d.tk.Append(w.data)
	}
	t.end(layerTokenize, seq, t0, n, len(toks))
	t0 = t.now()
	if salt0, reset := d.enc.AccountBytes(n); reset {
		// Conn.write announces the new salt in a RecSalt record; the
		// replay hands it to the engines directly.
		d.eng.Reset(salt0)
		if d.eng3000 != nil {
			d.eng3000.Reset(salt0)
		}
	}
	d.asg = d.enc.AssignTokens(toks, d.asg[:0])
	t.end(layerAssign, seq, t0, 0, len(toks))
	t0 = t.now()
	d.out = dpienc.GrowTokenBuf(d.out, len(d.asg))
	d.enc.EncryptAssigned(d.asg, d.out)
	t.end(layerEncrypt, seq, t0, 0, len(toks))

	var atMB, atRecv []byte
	var err error
	if len(d.out) > 0 {
		t0 = t.now()
		body := transport.MarshalTokens(d.out, d.p3)
		t.end(layerMarshal, seq, t0, len(body), len(toks))
		t0 = t.now()
		if atMB, err = d.up.carry(transport.RecTokens, body); err != nil {
			return err
		}
		t.end(layerSocket, seq, t0, len(body), 0)
	}
	t0 = t.now()
	pt := make([]byte, 1+n)
	if w.binary {
		pt[0] = 1
	}
	copy(pt[1:], w.data)
	ad := []byte{byte(transport.RecData)}
	ct := d.aead.Seal(nil, d.nonce(), pt, ad)
	t.end(layerSeal, seq, t0, n, 0)
	t0 = t.now()
	dataAtMB, err := d.up.carry(transport.RecData, ct)
	if err != nil {
		return err
	}
	t.end(layerSocket, seq, t0, len(ct), 0)

	// Middlebox, as forward: unmarshal and scan the tokens, relay both.
	if atMB != nil {
		t0 = t.now()
		ets, err := transport.UnmarshalTokens(atMB, d.p3)
		if err != nil {
			return err
		}
		t.end(layerUnmarshal, seq, t0, len(atMB), len(ets))
		t0 = t.now()
		d.evs = d.eng.ScanBatch(ets, d.evs[:0])
		d.events += len(d.evs)
		t.end(layerScan, seq, t0, 0, len(ets))
		if d.eng3000 != nil {
			t0 = t.now()
			d.evs = d.eng3000.ScanBatch(ets, d.evs[:0])
			t.end(layerScan3000, seq, t0, 0, len(ets))
		}
		t0 = t.now()
		if atRecv, err = d.down.carry(transport.RecTokens, atMB); err != nil {
			return err
		}
		t.end(layerSocket, seq, t0, len(atMB), 0)
	}
	t0 = t.now()
	dataAtRecv, err := d.down.carry(transport.RecData, dataAtMB)
	if err != nil {
		return err
	}
	t.end(layerSocket, seq, t0, len(dataAtMB), 0)

	// Receiver, as Conn.readRecord: unmarshal, open, validate.
	if atRecv != nil {
		t0 = t.now()
		ets, err := transport.UnmarshalTokens(atRecv, d.p3)
		if err != nil {
			return err
		}
		d.val.ReceiveTokens(ets)
		t.end(layerUnmarshal, seq, t0, len(atRecv), len(ets))
	}
	t0 = t.now()
	got, err := d.aead.Open(nil, d.nonce(), dataAtRecv, ad)
	if err != nil {
		return err
	}
	d.seq++
	t.end(layerOpen, seq, t0, n, 0)
	t0 = t.now()
	if w.binary {
		err = d.val.ValidateBinary(len(got) - 1)
	} else {
		err = d.val.ValidateText(got[1:])
	}
	if err != nil {
		return err
	}
	t.end(layerValidate, seq, t0, n, 0)

	t.end(layerRecord, seq, root, n, len(toks))
	return nil
}

// maxReplayRecords keeps the span file of a small-record workload to a few
// megabytes; 5000 records are plenty for per-byte means.
const maxReplayRecords = 5000

// replayOutcome is what the replay of one workload found.
type replayOutcome struct {
	bytes   int64 // payload bytes replayed
	records int
	self    [layerRecord + 1]int64
	events  int
}

// replay pushes connection 0's writes of p through the layers for at most
// budget, then writes the spans to dir/trace_<workload>.jsonl.
func replay(w *spec, p *plan, budget time.Duration, dir string) (*replayOutcome, error) {
	rs, err := parseRules6()
	if err != nil {
		return nil, err
	}
	var big *blindbox.Ruleset
	if binaryPlan := p.scripts[0][0].binary; !binaryPlan {
		if big, err = etSpec(3000).Generate(1); err != nil {
			return nil, err
		}
	}
	keys := bbcrypto.DeriveSessionKeys([]byte("benchmark replay"))
	t := &tracer{base: time.Now()}
	out := &replayOutcome{}
	deadline := time.Now().Add(budget)

	scripts := p.scripts[:1]
	if p.perFlow {
		scripts = p.scripts // every flow is its own connection with fresh state
	}
	seq := 0
	for _, sc := range scripts {
		if time.Now().After(deadline) {
			break
		}
		if p.perFlow {
			t0 := t.now()
			if err := replayRulePrep(t, seq, rs, keys); err != nil {
				return nil, fmt.Errorf("rule preparation: %w", err)
			}
			t.end(layerRecord, seq, t0, 0, 0)
			seq++
		}
		c2s, err := newReplayDir(w.stack, keys, rs, big, false)
		if err != nil {
			return nil, err
		}
		s2c, err := newReplayDir(w.stack, keys, rs, big, true)
		if err != nil {
			c2s.close()
			return nil, err
		}
		for i := range sc {
			// A flow is replayed whole, so that its rule preparation and
			// its payload bytes stay in proportion.
			if !p.perFlow && (time.Now().After(deadline) || out.records >= maxReplayRecords) {
				break
			}
			d := c2s
			if sc[i].s2c {
				d = s2c
			}
			if err = d.record(t, seq, &sc[i]); err != nil {
				break
			}
			out.bytes += int64(len(sc[i].data))
			out.records++
			seq++
		}
		out.events += c2s.events + s2c.events
		c2s.close()
		s2c.close()
		if err != nil {
			return nil, fmt.Errorf("replay record %d: %w", seq, err)
		}
	}
	out.self = t.selfTimes()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return out, t.write(filepath.Join(dir, "trace_"+w.name+".jsonl"))
}

// replayRulePrep performs one connection's §3.3 rule preparation for rs on
// one goroutine, in the order Conn.servePreparation and middlebox.runPrep
// run it on each leg: the endpoint garbles a circuit per fragment and ships
// it with its own labels; one base-OT phase; one OT extension over every
// fragment's wires; then the middlebox checks the two endpoints' copies
// against each other and evaluates.
func replayRulePrep(t *tracer, seq int, rs *blindbox.Ruleset, keys bbcrypto.SessionKeys) error {
	rg, err := blindbox.NewRuleGenerator("ReplayRG")
	if err != nil {
		return err
	}
	mb, err := ruleprep.NewMiddlebox(core.BuildRequest(rg.Sign(rs), tokenize.Delimiter))
	if err != nil {
		return err
	}
	wire, err := newHop()
	if err != nil {
		return err
	}
	defer wire.close()
	n := mb.NumFragments()
	var choices []bool
	for i := 0; i < n; i++ {
		choices = append(choices, mb.Choices(i)...)
	}

	var jobs [2][]*ruleprep.FragmentJob
	var labels [2][]bbcrypto.Block
	for leg := range jobs {
		ep := ruleprep.NewEndpoint(keys.K, rg.TagKey(), keys.KRand)
		var pairs [][2]bbcrypto.Block
		for i := 0; i < n; i++ {
			t0 := t.now()
			job, err := ep.Garble(i)
			if err != nil {
				return err
			}
			t.end(layerGarble, seq, t0, 0, 0)
			pairs = append(pairs, job.OTPairs()...)

			t0 = t.now()
			blob, err := wire.carry(transport.RecGarble, job.G.Marshal())
			if err != nil {
				return err
			}
			g, err := garble.Unmarshal(blob)
			if err != nil {
				return err
			}
			epLabels, err := transport.UnmarshalBlocks(transport.MarshalBlocks(job.EndpointLabels))
			if err != nil {
				return err
			}
			jobs[leg] = append(jobs[leg], ruleprep.NewFragmentJob(i, g, epLabels))
			t.end(layerGarbleWire, seq, t0, len(blob), 0)
		}

		t0 := t.now()
		recv, msgAs, err := ot.NewExtReceiver()
		if err != nil {
			return err
		}
		snd := ot.NewExtSender()
		msgBs, err := snd.BaseRespond(msgAs)
		if err != nil {
			return err
		}
		t.end(layerOTBase, seq, t0, 0, 0)

		t0 = t.now()
		u, err := recv.Extend(msgBs, choices)
		if err != nil {
			return err
		}
		masked, err := snd.Send(u, pairs)
		if err != nil {
			return err
		}
		if labels[leg], err = recv.Receive(masked, choices); err != nil {
			return err
		}
		t.end(layerOTExt, seq, t0, 0, 0)
	}
	for i := 0; i < n; i++ {
		t0 := t.now()
		lo, hi := i*256, (i+1)*256
		if _, err := mb.VerifyAndEvaluate(i, jobs[0][i], jobs[1][i], labels[0][lo:hi], labels[1][lo:hi]); err != nil {
			return err
		}
		t.end(layerRuleEnc, seq, t0, 0, 0)
	}
	return nil
}
