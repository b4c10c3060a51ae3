// Package ruleprep implements obfuscated rule encryption (§3.3 of the
// paper): the exchange by which the middlebox obtains AES_k(r) for every
// RG-authorized rule fragment r, without learning the session key k and
// without the endpoints learning the rules.
//
// Per fragment, both endpoints deterministically garble the function F
// (circuit.BuildRuleEncrypt) using shared randomness derived from krand;
// the middlebox checks the two garbled circuits are identical, obtains the
// input labels for its fragment and RG-tag bits by oblivious transfer (from
// each endpoint, again cross-checked), and evaluates the circuit to obtain
// the fragment's DPIEnc token key.
//
// Both AES key schedules stay outside F: k and kRG are the endpoints' own
// inputs, so an endpoint expands them once per connection and feeds F the
// round keys as input labels, which under free-XOR cost no gate.
//
// Garbling is embarrassingly parallel across fragments, mirroring the
// paper's "garble threads" (§6); GarbleEach runs it as a bounded pipeline so
// that an endpoint holds a few circuits at a time however many are asked for.
package ruleprep

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/circuit"
	"repro/internal/dpienc"
	"repro/internal/garble"
	"repro/internal/obs"
	"repro/internal/ot"
)

// FixedGarblingKey is the public fixed key of the garbling hash. It need
// not be secret; all parties must agree on it.
var FixedGarblingKey = bbcrypto.Block{'b', 'l', 'i', 'n', 'd', 'b', 'o', 'x', 'g', 'a', 'r', 'b', 'l', 'e', '0', '1'}

// Circuit caches the rule-encryption circuit, which every connection
// reuses (only the garbling randomness differs).
var (
	circOnce sync.Once
	circF    *circuit.Circuit
)

// F returns the shared rule-encryption circuit (built once per process).
func F() *circuit.Circuit {
	circOnce.Do(func() { circF = circuit.BuildRuleEncrypt() })
	return circF
}

// otWires is the number of input wires the middlebox chooses via OT per
// fragment: the fragment block x (128) plus RG's tag (128). They are F's
// first wires; the endpoints' endpointWires — the round keys of k, then of
// kRG — follow.
const (
	otWires       = 256
	endpointWires = 2 * circuit.RoundKeyBits
)

// MaxFragments bounds the fragment count of one preparation run. The count
// reaches an endpoint in an unauthenticated record from whoever sits on the
// path, and every fragment costs it a garbling and 8 KiB of OT sender state,
// so it is capped: an order of magnitude above the 3 000-rule set's 6 547
// (delimiter) or 6 957 (window) fragments, the largest ruleset this
// repository prepares (core.TestLargestRulesetFitsPreparationCap).
const MaxFragments = 1 << 16

// ErrTooManyFragments is returned, before anything is garbled, for a
// preparation run of more than MaxFragments fragments.
var ErrTooManyFragments = errors.New("ruleprep: fragment count exceeds MaxFragments")

// FragmentJob is one endpoint-side garbling result for one fragment index.
type FragmentJob struct {
	// Index is the fragment's position in the middlebox's rule list.
	Index int
	// G is the garbled circuit shipped to the middlebox.
	G *garble.Garbled
	// EndpointLabels are the labels for the endpoint-held inputs (the bits
	// of the round keys of k, then of kRG), in wire order, handed to the
	// middlebox directly.
	EndpointLabels []bbcrypto.Block
	// otPairs are the label pairs of the OT-transferred wires (x, tag).
	//bb:secret
	otPairs [][2]bbcrypto.Block
}

// OTPairs exposes the fragment's OT sender inputs.
func (j *FragmentJob) OTPairs() [][2]bbcrypto.Block { return j.otPairs }

// NewFragmentJob reconstructs a middlebox-side view of a fragment job from
// wire data (the garbled circuit and endpoint labels received from an
// endpoint). The OT pairs stay with the endpoint; the middlebox never
// holds them.
func NewFragmentJob(index int, g *garble.Garbled, endpointLabels []bbcrypto.Block) *FragmentJob {
	return &FragmentJob{Index: index, G: g, EndpointLabels: endpointLabels}
}

// Endpoint is one endpoint's (S or R) state for a rule-preparation run.
type Endpoint struct {
	circ *circuit.Circuit
	// keyBits are the endpoint's inputs to F in wire order: the 11 round
	// keys of k, then those of kRG, expanded once per connection.
	//bb:secret
	keyBits []bool
	//bb:secret
	krand bbcrypto.Block

	trace  obs.Sink
	tctx   obs.SpanCtx
	tflow  uint64
	tparty string
}

// SetTrace attaches a span sink to the endpoint: every subsequent Garble
// call emits one prep.garble span parented to ctx (the endpoint's
// handshake span), sized by the circuit's AND gates, garbled rows and
// wire bytes. Call it before GarbleEach; Garble itself may then run
// concurrently, since span-ID allocation and sinks are concurrency-safe.
func (e *Endpoint) SetTrace(sink obs.Sink, ctx obs.SpanCtx, flow uint64, party string) {
	e.trace, e.tctx, e.tflow, e.tparty = sink, ctx, flow, party
}

// NewEndpoint creates an endpoint-side session. k is the session detection
// key, kRG the rule generator's tag key from the installed RG
// configuration, and krand the shared randomness seed from the handshake.
//
// Both key schedules run here, outside the circuit. The middlebox accepts a
// fragment only if the two endpoints' labels for these wires are identical
// (Verify), so feeding F anything but the honest expansion is caught exactly
// as feeding it a different k is.
func NewEndpoint(k, kRG, krand bbcrypto.Block) *Endpoint {
	rk, rkRG := circuit.ExpandKey128(k), circuit.ExpandKey128(kRG)
	keyBits := append(circuit.BytesToBits(rk[:]), circuit.BytesToBits(rkRG[:])...)
	return &Endpoint{circ: F(), keyBits: keyBits, krand: krand}
}

// seed derives the deterministic garbling seed for fragment i. Both
// endpoints hold krand, so they derive equal seeds and hence produce
// bit-identical garbled circuits.
func (e *Endpoint) seed(i int) bbcrypto.Block {
	return bbcrypto.DeriveBlock(e.krand[:], fmt.Sprintf("blindbox ruleprep %d", i))
}

// Garble produces the fragment job for index i.
func (e *Endpoint) Garble(i int) (*FragmentJob, error) {
	start := time.Now()
	g, labels, err := garble.Garble(e.circ, FixedGarblingKey, bbcrypto.NewPRG(e.seed(i)))
	if err != nil {
		return nil, err
	}
	if e.trace != nil {
		st := g.Stats()
		sp := obs.Span{
			Flow:  e.tflow,
			Party: e.tparty,
			Name:  obs.SpanPrepGarble,
			Start: start.UnixNano(),
			Dur:   time.Since(start).Nanoseconds(),
			Gates: st.Gates,
			Rows:  st.TableRows,
			Bytes: st.WireBytes,
		}
		e.tctx.Child().Stamp(&sp)
		e.trace.Emit(sp)
	}
	job := &FragmentJob{Index: i, G: g}

	job.EndpointLabels = make([]bbcrypto.Block, endpointWires)
	for b, bit := range e.keyBits {
		job.EndpointLabels[b] = labels.For(circuit.RuleEncryptKOff+b, bit)
	}
	job.otPairs = make([][2]bbcrypto.Block, otWires)
	for b := range job.otPairs {
		job.otPairs[b][0], job.otPairs[b][1] = labels.Pair(circuit.RuleEncryptXOff + b)
	}
	return job, nil
}

// GarbleEach garbles fragments 0..n-1 and hands each job to emit in index
// order. Garbling runs ahead of emit on up to GOMAXPROCS goroutines and no
// further: a job is started only when an earlier one is handed over, so
// however slowly emit drains, at most GOMAXPROCS circuits exist beyond the
// one emit holds. The first error, from garbling or from emit, stops the
// run; GarbleEach returns once every goroutine it started has finished.
func (e *Endpoint) GarbleEach(n int, emit func(*FragmentJob) error) error {
	if n < 0 || n > MaxFragments {
		return fmt.Errorf("%w: %d", ErrTooManyFragments, n)
	}
	type result struct {
		job *FragmentJob
		err error
	}
	var inFlight []chan result // oldest first
	next := 0
	start := func() {
		ch := make(chan result, 1)
		inFlight = append(inFlight, ch)
		go func(i int) {
			job, err := e.Garble(i)
			ch <- result{job, err}
		}(next)
		next++
	}
	var err error
	for ahead := runtime.GOMAXPROCS(0); next < n && next < ahead; {
		start()
	}
	for len(inFlight) > 0 {
		r := <-inFlight[0]
		inFlight = inFlight[1:]
		if err != nil {
			continue // failed already: only waiting for what still runs
		}
		if err = r.err; err != nil {
			continue
		}
		if next < n {
			start() // before emit, so garbling overlaps the write
		}
		err = emit(r.job)
	}
	return err
}

// Request is what the middlebox asks the endpoints to prepare: one entry
// per rule fragment, consisting of the fragment block and RG's tag for it.
// The endpoints never see this; it parameterizes only the middlebox side.
type Request struct {
	Fragments []bbcrypto.Block
	Tags      []bbcrypto.Block
}

// Middlebox is the MB-side state of a rule-preparation run.
type Middlebox struct {
	circ *circuit.Circuit
	req  Request

	trace obs.Sink
	tctx  obs.SpanCtx
	tflow uint64
}

// SetTrace attaches a span sink to the middlebox session: every
// subsequent VerifyAndEvaluate emits one prep.rule_enc span parented to
// ctx (the middlebox's prep span).
func (m *Middlebox) SetTrace(sink obs.Sink, ctx obs.SpanCtx, flow uint64) {
	m.trace, m.tctx, m.tflow = sink, ctx, flow
}

// NewMiddlebox creates the MB session for the given rule fragments.
func NewMiddlebox(req Request) (*Middlebox, error) {
	if len(req.Fragments) != len(req.Tags) {
		return nil, errors.New("ruleprep: fragments and tags must align")
	}
	return &Middlebox{circ: F(), req: req}, nil
}

// NumFragments returns N, which MB announces to the endpoints (§3.3 step 1).
func (m *Middlebox) NumFragments() int { return len(m.req.Fragments) }

// CircuitANDs returns the AND-gate count of the rule-encryption circuit F
// — the gate counter trace spans covering circuit construction carry.
func (m *Middlebox) CircuitANDs() int { return m.circ.NumAND() }

// Choices returns MB's OT choice bits for fragment i: the bits of the
// fragment block followed by the bits of its tag.
func (m *Middlebox) Choices(i int) []bool {
	out := make([]bool, 0, otWires)
	out = append(out, circuit.BytesToBits(m.req.Fragments[i][:])...)
	out = append(out, circuit.BytesToBits(m.req.Tags[i][:])...)
	return out
}

// Verify cross-checks the two endpoints' jobs for fragment i: identical
// garbled circuits and identical endpoint labels. Since at least one
// endpoint is honest (§2.2.2), equality proves correctness.
func (m *Middlebox) Verify(jobS, jobR *FragmentJob) error {
	if jobS.Index != jobR.Index {
		return errors.New("ruleprep: job index mismatch")
	}
	if !garble.Equal(jobS.G, jobR.G) {
		return errors.New("ruleprep: endpoints disagree on garbled circuit")
	}
	if len(jobS.EndpointLabels) != len(jobR.EndpointLabels) {
		return errors.New("ruleprep: endpoint label count mismatch")
	}
	for b := range jobS.EndpointLabels {
		if subtle.ConstantTimeCompare(jobS.EndpointLabels[b][:], jobR.EndpointLabels[b][:]) != 1 {
			return errors.New("ruleprep: endpoints disagree on input labels")
		}
	}
	return nil
}

// ErrUnauthorized is returned when the circuit outputs ⊥ (all zeros): the
// fragment's tag did not verify, i.e. RG never authorized this keyword.
var ErrUnauthorized = errors.New("ruleprep: fragment not authorized by rule generator")

// Evaluate runs the garbled circuit for fragment i given the OT-received
// labels (x then tag wires) and the endpoint-held labels (the round-key
// wires of k, then of kRG), returning the fragment's DPIEnc token key
// AES_k(x).
func (m *Middlebox) Evaluate(i int, job *FragmentJob, otLabels []bbcrypto.Block) (dpienc.TokenKey, error) {
	if len(otLabels) != otWires {
		return dpienc.TokenKey{}, errors.New("ruleprep: wrong OT label count")
	}
	if len(job.EndpointLabels) != endpointWires {
		return dpienc.TokenKey{}, errors.New("ruleprep: wrong endpoint label count")
	}
	in := make([]bbcrypto.Block, m.circ.NInputs)
	copy(in[circuit.RuleEncryptXOff:], otLabels)
	copy(in[circuit.RuleEncryptKOff:], job.EndpointLabels)
	bits, err := garble.Eval(m.circ, job.G, in)
	if err != nil {
		return dpienc.TokenKey{}, err
	}
	var key, bottom dpienc.TokenKey
	copy(key[:], circuit.BitsToBytes(bits))
	if subtle.ConstantTimeCompare(key[:], bottom[:]) == 1 {
		return dpienc.TokenKey{}, ErrUnauthorized
	}
	return key, nil
}

// VerifyAndEvaluate performs the complete middlebox-side finishing work
// for fragment i — cross-checking the two endpoints' garbled circuits,
// cross-checking the labels each endpoint's OT delivered, and evaluating
// the circuit — and, when tracing, emits one prep.rule_enc span covering
// it. It is the single entry point the network middlebox and RunLocal
// share, so traces describe every deployment the same way.
func (m *Middlebox) VerifyAndEvaluate(i int, jobS, jobR *FragmentJob, labS, labR []bbcrypto.Block) (dpienc.TokenKey, error) {
	start := time.Now()
	key, err := m.verifyAndEvaluate(i, jobS, jobR, labS, labR)
	if m.trace != nil {
		st := jobS.G.Stats()
		sp := obs.Span{
			Flow:  m.tflow,
			Party: obs.PartyMB,
			Name:  obs.SpanPrepRuleEnc,
			Start: start.UnixNano(),
			Dur:   time.Since(start).Nanoseconds(),
			Gates: st.Gates,
			Rows:  st.TableRows,
			Bytes: st.WireBytes,
		}
		if err != nil && err != ErrUnauthorized {
			sp.Err = err.Error()
		}
		m.tctx.Child().Stamp(&sp)
		m.trace.Emit(sp)
	}
	return key, err
}

// verifyAndEvaluate is VerifyAndEvaluate without the tracing wrapper.
func (m *Middlebox) verifyAndEvaluate(i int, jobS, jobR *FragmentJob, labS, labR []bbcrypto.Block) (dpienc.TokenKey, error) {
	if err := m.Verify(jobS, jobR); err != nil {
		return dpienc.TokenKey{}, err
	}
	if len(labS) != len(labR) {
		return dpienc.TokenKey{}, errors.New("ruleprep: OT label count mismatch")
	}
	for b := range labS {
		if subtle.ConstantTimeCompare(labS[b][:], labR[b][:]) != 1 {
			return dpienc.TokenKey{}, errors.New("ruleprep: endpoints disagree on OT labels")
		}
	}
	return m.Evaluate(i, jobS, labS)
}

// RunLocal performs the complete rule preparation with both endpoints in
// process — the building block for examples, benchmarks and the in-memory
// transport — in the order the live path runs it: each endpoint garbles every
// fragment, then one OT extension per endpoint covers all fragments' wires,
// then the middlebox verifies and evaluates. It returns the token key for
// every fragment (nil entries for unauthorized fragments) and the number of
// bytes of garbled material that would cross the wire.
func RunLocal(epS, epR *Endpoint, mb *Middlebox) ([]*dpienc.TokenKey, int, error) {
	n := mb.NumFragments()
	choices := make([]bool, 0, n*otWires)
	for i := 0; i < n; i++ {
		choices = append(choices, mb.Choices(i)...)
	}
	var (
		jobs   [2][]*FragmentJob
		labels [2][]bbcrypto.Block
	)
	bytesOnWire := 0
	for leg, ep := range []*Endpoint{epS, epR} {
		pairs := make([][2]bbcrypto.Block, 0, n*otWires)
		err := ep.GarbleEach(n, func(job *FragmentJob) error {
			jobs[leg] = append(jobs[leg], job)
			pairs = append(pairs, job.OTPairs()...)
			bytesOnWire += job.G.Size()
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		if labels[leg], err = ot.ExtTransfer(pairs, choices); err != nil {
			return nil, 0, err
		}
	}
	keys := make([]*dpienc.TokenKey, n)
	for i := 0; i < n; i++ {
		lo, hi := i*otWires, (i+1)*otWires
		key, err := mb.VerifyAndEvaluate(i, jobs[0][i], jobs[1][i], labels[0][lo:hi], labels[1][lo:hi])
		if err == ErrUnauthorized {
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		keys[i] = &key
	}
	return keys, bytesOnWire, nil
}
