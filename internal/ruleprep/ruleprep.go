// Package ruleprep implements obfuscated rule encryption (§3.3 of the
// paper): the exchange by which the middlebox obtains AES_k(r) for every
// RG-authorized rule fragment r, without learning the session key k and
// without the endpoints learning the rules.
//
// Per fragment, both endpoints deterministically garble the function F
// (circuit.BuildRuleEncrypt) using shared randomness derived from krand.
// The server ships its garbled circuit and endpoint labels; the client ships
// only the SHA-256 digest of the same message, and the middlebox accepts the
// server's circuit only if its digest equals the client's (a hashed-circuit
// commitment, DESIGN.md substitution 1). The middlebox then obtains the
// input labels for its fragment and RG-tag bits by oblivious transfer from
// the server, and accepts each label only if its hash equals the client's
// commitment to that wire's label at the same choice bit (a label
// commitment, DESIGN.md substitution 1, "One OT phase"). It evaluates the
// circuit to obtain the fragment's DPIEnc token key.
//
// Both AES key schedules stay outside F: k and kRG are the endpoints' own
// inputs, so an endpoint expands them once per connection and feeds F the
// round keys as input labels, which under free-XOR cost no gate.
//
// Garbling is embarrassingly parallel across fragments, mirroring the
// paper's "garble threads" (§6); GarbleEach runs it as a bounded pipeline so
// that an endpoint holds a few circuits at a time however many are asked for.
//
// The middlebox runs the exchange with each endpoint over a Port (Run and
// Endpoint.Serve), one leg per endpoint, in this order and no other; each
// message is a subtype byte and a body of the one length BodyLen gives it,
// for n fragments. The client's leg is
//
//	MB → C   SubStart    uint32 n                                    4 B
//	C → MB   SubDigest   a digest message, per fragment              DigestMsgLen
//	MB → C   SubDone     empty: data may flow                        0
//
// and the server's
//
//	MB → S   SubResume   uint32 n, 16-byte state ID, uint32 position 24 B
//	S → MB   SubVerdict  1: resume the kept base phase, 0: run one   1 B
//	S → MB   SubCircuit  a circuit message, per fragment             CircuitMsgLen
//	MB → S   SubMsgA     the base-OT point (verdict 0 only)          65 B
//	S → MB   SubMsgB     128 base-OT response points (verdict 0)     128 × 65 B
//	MB → S   SubU        the IKNP correction matrix, 128 columns     128 × 32·n B
//	S → MB   SubMasked   two label blocks per OT wire                2 × 256·n × 16 B
//	MB → S   SubDone     empty: data may flow                        0
//
// The base phase's outcome is kept by both sides under the state ID the
// middlebox draws, and later dials extend it at fresh positions instead of
// running MsgA and MsgB (KeptBase, DESIGN.md substitution 1, "Kept base
// phases"). An all-zero ID keeps nothing.
package ruleprep

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/circuit"
	"repro/internal/dpienc"
	"repro/internal/garble"
	"repro/internal/obs"
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

// OTWires is the number of input wires the middlebox chooses via OT per
// fragment: the fragment block x (128) plus RG's tag (128). They are F's
// first wires; the endpoints' endpointWires — the round keys of k, then of
// kRG — follow.
const (
	OTWires       = 256
	endpointWires = 2 * circuit.RoundKeyBits
)

// MaxFragments bounds the fragment count of one preparation run. The count
// reaches an endpoint in an unauthenticated record from whoever sits on the
// path, and every fragment costs it a garbling (and a server 8 KiB of OT
// sender state), so it is capped: an order of magnitude above the 3 000-rule
// set's 6 547 (delimiter) or 6 957 (window) fragments, the largest ruleset
// this repository prepares (core.TestLargestRulesetFitsPreparationCap).
const MaxFragments = 1 << 16

// ErrTooManyFragments is returned, before anything is garbled, for a
// preparation run of more than MaxFragments fragments.
var ErrTooManyFragments = errors.New("ruleprep: fragment count exceeds MaxFragments")

// FragmentJob is one endpoint-side garbling result for one fragment index,
// or the middlebox's view of what one endpoint sent for it.
type FragmentJob struct {
	// Index is the fragment's position in the middlebox's rule list.
	Index int
	// G is the garbled circuit shipped to the middlebox. It is nil in a
	// middlebox-side job for which only a digest crossed the wire.
	G *garble.Garbled
	// EndpointLabels are the labels for the endpoint-held inputs (the bits
	// of the round keys of k, then of kRG), in wire order, handed to the
	// middlebox directly.
	EndpointLabels []bbcrypto.Block
	// Digest is the SHA-256 of the job's circuit message
	// (AppendCircuitMsg). Verify compares digests; a job fresh from Garble
	// has none until its message is written.
	Digest [sha256.Size]byte
	// Commits are, in a middlebox-side client job, the client's commitments
	// to the label of each OT wire at the middlebox's choice bit
	// (ParseDigestMsg), OTWires of them.
	Commits []bbcrypto.Block
	// otPairs are the label pairs of the OT-transferred wires (x, tag).
	//bb:secret
	otPairs [][2]bbcrypto.Block
}

// OTPairs exposes the fragment's OT sender inputs.
func (j *FragmentJob) OTPairs() [][2]bbcrypto.Block { return j.otPairs }

// NewFragmentJob reconstructs a middlebox-side view of a fragment job from
// a garbled circuit and endpoint labels, with the digest of their circuit
// message. The OT pairs stay with the endpoint; the middlebox never holds
// them.
func NewFragmentJob(index int, g *garble.Garbled, endpointLabels []bbcrypto.Block) *FragmentJob {
	job := &FragmentJob{Index: index, G: g, EndpointLabels: endpointLabels}
	job.Digest = sha256.Sum256(job.AppendCircuitMsg(nil))
	return job
}

// DigestMsgLen is the length of a digest message: the index, the digest,
// and two label commitments per OT wire.
const DigestMsgLen = 4 + sha256.Size + 2*OTWires*bbcrypto.BlockSize

// CircuitMsgLen returns the length of every circuit message. F is fixed
// (garble's TestGarbledFIsPinned), so its garbled blob is too: the fixed
// key, the row count, two half-gate rows per AND gate and a decode byte per
// output, each list behind its uint32 length.
func CircuitMsgLen() int {
	f := F()
	blob := bbcrypto.BlockSize + 1 + 4 + 2*f.NumAND()*bbcrypto.BlockSize + 4 + len(f.Outputs)
	return 8 + blob + 4 + endpointWires*bbcrypto.BlockSize
}

// AppendCircuitMsg appends the job's circuit message to dst: uint32 index,
// uint32 blob length, the garbled blob, then the endpoint labels as a uint32
// count and the blocks. It is the body of the server's SubCircuit record,
// and the client's digest is its SHA-256.
func (j *FragmentJob) AppendCircuitMsg(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(j.Index))
	dst = binary.BigEndian.AppendUint32(dst, uint32(j.G.Size()))
	dst = j.G.AppendMarshal(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(j.EndpointLabels)))
	for i := range j.EndpointLabels {
		dst = append(dst, j.EndpointLabels[i][:]...)
	}
	return dst
}

// ParseCircuitMsg inverts AppendCircuitMsg, and the job's Digest is the
// SHA-256 of msg. Only what AppendCircuitMsg writes is accepted: the blob is
// canonical (garble.Unmarshal) and the labels fill the rest exactly, so
// equal digests mean equal circuits and labels.
func ParseCircuitMsg(msg []byte) (*FragmentJob, error) {
	if len(msg) < 8 {
		return nil, errors.New("ruleprep: short circuit message")
	}
	index, blobLen := binary.BigEndian.Uint32(msg), binary.BigEndian.Uint32(msg[4:])
	rest := msg[8:]
	if uint64(blobLen) > uint64(len(rest)) {
		return nil, errors.New("ruleprep: truncated circuit blob")
	}
	g, err := garble.Unmarshal(rest[:blobLen])
	if err != nil {
		return nil, err
	}
	rest = rest[blobLen:]
	if len(rest) < 4 {
		return nil, errors.New("ruleprep: short endpoint label list")
	}
	count := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(len(rest)) != uint64(count)*bbcrypto.BlockSize {
		return nil, errors.New("ruleprep: endpoint label list size mismatch")
	}
	labels := make([]bbcrypto.Block, count)
	for i := range labels {
		copy(labels[i][:], rest[i*bbcrypto.BlockSize:])
	}
	return &FragmentJob{Index: int(index), G: g, EndpointLabels: labels, Digest: sha256.Sum256(msg)}, nil
}

// AppendDigestMsg appends the job's digest message to dst: uint32 index,
// the digest, then for each OT wire the commitments to its two labels,
// bit 0's first. It is the body of the client's SubDigest record; the job
// must come from Garble, which holds the label pairs.
func (j *FragmentJob) AppendDigestMsg(dst []byte) []byte {
	dst = append(binary.BigEndian.AppendUint32(dst, uint32(j.Index)), j.Digest[:]...)
	dst = slices.Grow(dst, 2*len(j.otPairs)*bbcrypto.BlockSize)
	for w := range j.otPairs {
		c0, c1 := commit(j.Index, w, false, &j.otPairs[w][0]), commit(j.Index, w, true, &j.otPairs[w][1])
		dst = append(append(dst, c0[:]...), c1[:]...)
	}
	return dst
}

// ParseDigestMsg inverts AppendDigestMsg for the middlebox, whose choice
// bits for the fragment are choices: the job carries the index, the digest
// and, per OT wire, only the commitment at the choice bit.
func ParseDigestMsg(msg []byte, choices []bool) (*FragmentJob, error) {
	if len(msg) != DigestMsgLen {
		return nil, fmt.Errorf("ruleprep: digest message of %d bytes, want %d", len(msg), DigestMsgLen)
	}
	if len(choices) != OTWires {
		return nil, errors.New("ruleprep: wrong choice bit count")
	}
	job := &FragmentJob{Index: int(binary.BigEndian.Uint32(msg)), Commits: make([]bbcrypto.Block, OTWires)}
	copy(job.Digest[:], msg[4:])
	pairs := msg[4+sha256.Size:]
	for w := range job.Commits {
		pair := pairs[2*w*bbcrypto.BlockSize:]
		copy(job.Commits[w][:], pair)
		subtle.ConstantTimeCopy(bit(choices[w]), job.Commits[w][:], pair[bbcrypto.BlockSize:2*bbcrypto.BlockSize])
	}
	return job, nil
}

// commitDomain separates label commitments from every other hash in the
// exchange, the garbling hash (a fixed-key AES) among them.
const commitDomain = "blindbox ruleprep label commitment"

// commit is the client's commitment to the label of OT wire w of fragment
// index at bit b: SHA-256 of the domain, the index, the wire, the bit and
// the label, truncated to a block.
func commit(index, w int, b bool, label *bbcrypto.Block) (c bbcrypto.Block) {
	var in [len(commitDomain) + 4 + 4 + 1 + bbcrypto.BlockSize]byte
	n := copy(in[:], commitDomain)
	binary.BigEndian.PutUint32(in[n:], uint32(index))
	binary.BigEndian.PutUint32(in[n+4:], uint32(w))
	in[n+8] = byte(bit(b))
	copy(in[n+9:], label[:])
	sum := sha256.Sum256(in[:])
	copy(c[:], sum[:])
	return c
}

// bit is b as 0 or 1.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
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

	fr   *obs.FlowRecorder
	tctx obs.SpanCtx
}

// SetTrace attaches the endpoint's flow recorder: every subsequent Garble
// call records one prep.garble span parented to ctx (the endpoint's
// handshake span), sized by the circuit's AND gates, garbled rows and
// wire bytes. Call it before GarbleEach; Garble itself may then run
// concurrently, since span-ID allocation and flow recorders are
// concurrency-safe.
func (e *Endpoint) SetTrace(fr *obs.FlowRecorder, ctx obs.SpanCtx) {
	e.fr, e.tctx = fr, ctx
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
	st := g.Stats()
	e.fr.Span(e.tctx.Child(), start, obs.Span{Name: obs.SpanPrepGarble, Gates: st.Gates, Rows: st.TableRows, Bytes: st.WireBytes})
	job := &FragmentJob{Index: i, G: g}

	job.EndpointLabels = make([]bbcrypto.Block, endpointWires)
	for b, bit := range e.keyBits {
		job.EndpointLabels[b] = labels.For(circuit.RuleEncryptKOff+b, bit)
	}
	job.otPairs = make([][2]bbcrypto.Block, OTWires)
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

// Middlebox is the middlebox's side of rule preparation for one request:
// every fragment's OT choice bits, fixed by NewMiddlebox and never written
// after, so one Middlebox serves any number of concurrent Runs.
type Middlebox struct {
	choices []bool // every fragment's, in fragment order
}

// NewMiddlebox creates the MB side for the given rule fragments.
func NewMiddlebox(req Request) (*Middlebox, error) {
	if len(req.Fragments) != len(req.Tags) {
		return nil, errors.New("ruleprep: fragments and tags must align")
	}
	m := &Middlebox{choices: make([]bool, 0, len(req.Fragments)*OTWires)}
	for i := range req.Fragments {
		m.choices = append(m.choices, circuit.BytesToBits(req.Fragments[i][:])...)
		m.choices = append(m.choices, circuit.BytesToBits(req.Tags[i][:])...)
	}
	return m, nil
}

// NumFragments returns N, which MB announces to the endpoints (§3.3 step 1).
func (m *Middlebox) NumFragments() int { return len(m.choices) / OTWires }

// Choices returns MB's OT choice bits for fragment i: the bits of the
// fragment block followed by the bits of its tag. The caller must not
// modify them.
func (m *Middlebox) Choices(i int) []bool {
	return m.choices[i*OTWires : (i+1)*OTWires : (i+1)*OTWires]
}

// Verify checks the client's job for fragment i against the server's:
// equal digests of their circuit messages, so identical garbled circuits
// and identical endpoint labels. Since at least one endpoint is honest
// (§2.2.2), equality proves correctness.
func (m *Middlebox) Verify(jobS, jobR *FragmentJob) error {
	if jobS.Index != jobR.Index {
		return errors.New("ruleprep: job index mismatch")
	}
	var none [sha256.Size]byte
	if jobS.Digest == none || jobR.Digest == none {
		return errors.New("ruleprep: job carries no circuit digest")
	}
	if subtle.ConstantTimeCompare(jobS.Digest[:], jobR.Digest[:]) != 1 {
		return errors.New("ruleprep: endpoints disagree on garbled circuit")
	}
	return nil
}

// ErrLabelCommitment is returned when a label the server's OT handed over
// does not hash to the client's commitment for its wire at the middlebox's
// choice bit: the endpoints disagree, and preparation yields no key.
var ErrLabelCommitment = errors.New("ruleprep: OT label does not match the client's commitment")

// checkCommitments compares, in constant time, the hash of each label the
// server's OT delivered for fragment i with the client's commitment at the
// choice bit of its wire.
func checkCommitments(i int, commits, labels []bbcrypto.Block, choices []bool) error {
	if len(commits) != len(labels) || len(choices) != len(labels) {
		return ErrLabelCommitment
	}
	ok := 1
	for w := range labels {
		c := commit(i, w, choices[w], &labels[w])
		ok &= subtle.ConstantTimeCompare(c[:], commits[w][:])
	}
	if ok != 1 {
		return ErrLabelCommitment
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
	switch {
	case job.G == nil:
		return dpienc.TokenKey{}, errors.New("ruleprep: job carries no circuit")
	case len(otLabels) != OTWires:
		return dpienc.TokenKey{}, errors.New("ruleprep: wrong OT label count")
	case len(job.EndpointLabels) != endpointWires:
		return dpienc.TokenKey{}, errors.New("ruleprep: wrong endpoint label count")
	}
	f := F()
	in := make([]bbcrypto.Block, f.NInputs)
	copy(in[circuit.RuleEncryptXOff:], otLabels)
	copy(in[circuit.RuleEncryptKOff:], job.EndpointLabels)
	bits, err := garble.Eval(f, job.G, in)
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

// VerifyAndEvaluate is the middlebox's finishing work for fragment i when
// both endpoints' OT delivered labels: it compares the endpoints' digests,
// then their labels, then evaluates jobR's circuit. Only the benchmark's
// replay calls it, re-enacting two OT legs (ROADMAP 1(b)); Run checks the
// server's labels against the client's commitments instead (ruleEnc).
func (m *Middlebox) VerifyAndEvaluate(i int, jobS, jobR *FragmentJob, labS, labR []bbcrypto.Block) (dpienc.TokenKey, error) {
	if err := m.Verify(jobS, jobR); err != nil {
		return dpienc.TokenKey{}, err
	}
	if err := equalLabels(labS, labR); err != nil {
		return dpienc.TokenKey{}, err
	}
	return m.Evaluate(i, jobR, labR)
}

// equalLabels is VerifyAndEvaluate's label check: both legs' OT delivered
// the same labels.
func equalLabels(labS, labR []bbcrypto.Block) error {
	if len(labS) != len(labR) {
		return errors.New("ruleprep: OT label count mismatch")
	}
	for b := range labS {
		if subtle.ConstantTimeCompare(labS[b][:], labR[b][:]) != 1 {
			return errors.New("ruleprep: endpoints disagree on OT labels")
		}
	}
	return nil
}

// RunLocal performs the complete rule preparation in process — §7.2.2's
// setup cells and the benchmark time it: epS (the client) and epR (the
// server) each Serve their leg and the middlebox Runs both, over in-process
// Ports, so the exchange has one order, Run's. It Runs with the zero Dial:
// nothing is kept, so every call pays the base phase, and nothing is
// traced. It returns every fragment's
// token key (nil if unauthorized) and the bytes of epS's digest and epR's
// circuit messages.
func RunLocal(epS, epR *Endpoint, mb *Middlebox) ([]*dpienc.TokenKey, int, error) {
	mbDone := make(chan struct{})
	var (
		mbEnds [2]*localPort
		epEnds [2]*localPort
		epErrs [2]error
		wg     sync.WaitGroup
	)
	for i, ep := range [2]*Endpoint{epS, epR} {
		toEP, toMB, epDone := make(chan []byte), make(chan []byte), make(chan struct{})
		mbEnds[i] = &localPort{in: toMB, out: toEP, gone: epDone}
		epEnds[i] = &localPort{in: toEP, out: toMB, gone: mbDone}
		wg.Add(1)
		go func() {
			defer wg.Done()
			epErrs[i] = ep.Serve(epEnds[i], i == 0)
			close(epDone)
		}()
	}
	keys, _, err := mb.Run(mbEnds[0], mbEnds[1], Dial{})
	close(mbDone)
	wg.Wait()
	if err != nil {
		for _, e := range epErrs {
			if e != nil && !errors.Is(e, errLegClosed) {
				err = errors.Join(err, e)
			}
		}
		return nil, 0, err
	}
	return keys, epEnds[0].jobBytes + epEnds[1].jobBytes, nil
}

// errLegClosed ends a localPort call whose peer has returned.
var errLegClosed = errors.New("ruleprep: in-process leg closed")

// localPort is one end of an in-process leg. Each message crosses an
// unbuffered channel as its own copy, so a sent message has been received;
// Recv holds it to its subtype and length as transport.PrepPort does. Both
// calls give up once the peer has returned (gone is closed).
type localPort struct {
	in   <-chan []byte
	out  chan<- []byte
	gone <-chan struct{}
	// jobBytes counts the bodies of the digest and circuit messages sent.
	jobBytes int
}

func (p *localPort) Send(msg []byte) error {
	if msg[0] == SubDigest || msg[0] == SubCircuit {
		p.jobBytes += len(msg) - 1
	}
	select {
	case p.out <- slices.Clone(msg):
		return nil
	case <-p.gone:
		return errLegClosed
	}
}

func (p *localPort) Recv(want byte, size int) ([]byte, error) {
	select {
	case msg := <-p.in:
		if len(msg) != 1+size || msg[0] != want {
			return nil, &MessageError{Want: want, Size: size}
		}
		return msg[1:], nil
	case <-p.gone:
		return nil, errLegClosed
	}
}
