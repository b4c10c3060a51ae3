package ruleprep

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/dpienc"
	"repro/internal/garble"
	"repro/internal/obs"
	"repro/internal/ot"
)

// Preparation message subtypes; the package comment gives their order.
const (
	SubStart byte = iota + 1
	SubCircuit
	SubMsgA
	SubMsgB
	SubU
	SubMasked
	SubDone
	SubDigest
	SubResume
	SubVerdict
)

// BodyLen is the length of every body of message sub in a run of n
// fragments, or -1 for an unknown subtype.
func BodyLen(sub byte, n int) int {
	switch sub {
	case SubStart:
		return 4
	case SubResume:
		return resumeLen
	case SubVerdict:
		return 1
	case SubCircuit:
		return CircuitMsgLen()
	case SubDigest:
		return DigestMsgLen
	case SubMsgA:
		return ot.PointSize
	case SubMsgB:
		return ot.BaseOTs * ot.PointSize
	case SubU:
		return ot.BaseOTs * OTWires * n / 8
	case SubMasked:
		return 2 * OTWires * n * bbcrypto.BlockSize
	case SubDone:
		return 0
	}
	return -1
}

// Port carries one leg's messages between the middlebox and an endpoint.
type Port interface {
	// Send sends one message: its subtype byte, then its body.
	Send(msg []byte) error
	// Recv returns the next message's body, which is the caller's. Anything
	// but subtype want with a body of exactly size bytes is an error; a
	// longer body is refused before it is read.
	Recv(want byte, size int) ([]byte, error)
}

// MessageError is a Port's error for a message other than the one due:
// another subtype, or a body of another length.
type MessageError struct {
	Want byte // the subtype due
	Size int  // its body length
}

// Error names the message that was due.
func (e *MessageError) Error() string {
	return fmt.Sprintf("ruleprep: expected prep message %d with a %d-byte body", e.Want, e.Size)
}

// Serve runs the endpoint's leg over p in the one order the exchange
// allows for its role: Start (a client) or Resume and the verdict (a
// server), then each fragment's circuit message (a server) or digest
// message (a client), then a server's OT sender half, returning nil at
// Done; anything else is an error. The endpoint never learns the rules: it
// garbles the generic F, and a server hands over labels only through OT, a
// client only commitments to them.
func (e *Endpoint) Serve(p Port, client bool) error {
	sub := SubResume
	if client {
		sub = SubStart
	}
	body, err := p.Recv(sub, BodyLen(sub, 0))
	if err != nil {
		return err
	}
	// The count is the peer's word: it is refused over MaxFragments before
	// anything is sent, and GarbleEach holds a bounded number of circuits
	// however slowly the peer reads.
	n := int(binary.BigEndian.Uint32(body))
	if n > MaxFragments {
		return fmt.Errorf("%w: %d", ErrTooManyFragments, n)
	}
	var (
		id     StateID
		sender *ot.ExtSender // a server's resumed OT sender, if any
	)
	if !client {
		var c uint32
		if id, c, err = parseResume(body); err != nil {
			return err
		}
		verdict := verdictBase
		if c > 0 {
			if sender = keptSenders.resume(id, c); sender != nil {
				verdict = verdictResume
			}
			// A refused resumption is not kept: the middlebox may have
			// handed positions of the old state to concurrent dials.
			id = StateID{}
		}
		if err := p.Send([]byte{SubVerdict, verdict}); err != nil {
			return err
		}
	}
	var (
		pairs [][2]bbcrypto.Block // a server's OT sender inputs
		msg   []byte              // the outgoing message, reused by every send
	)
	err = e.GarbleEach(n, func(job *FragmentJob) error {
		msg = job.AppendCircuitMsg(append(msg[:0], SubCircuit))
		if client { // DESIGN.md substitution 1: a digest and label commitments stand in for the circuit and the OT leg
			job.Digest = sha256.Sum256(msg[1:])
			msg = job.AppendDigestMsg(append(msg[:0], SubDigest))
		} else {
			pairs = append(pairs, job.OTPairs()...)
		}
		return p.Send(msg)
	})
	if err != nil {
		return err
	}
	if client {
		_, err = p.Recv(SubDone, BodyLen(SubDone, n))
		return err
	}
	var u []byte
	if sender != nil {
		u, err = p.Recv(SubU, BodyLen(SubU, n))
	} else {
		u, sender, err = serverBase(p, id, n)
	}
	if err != nil {
		return err
	}
	if msg, err = appendMasked(msg[:0], sender, u, pairs); err != nil {
		return err
	}
	_, err = exchange(p, msg, SubDone, n)
	return err
}

// serverBase runs a server's base phase over p and keeps its outcome under
// id (the server's store keeps nothing under the zero ID, nor replaces a
// state), then receives the correction matrix.
func serverBase(p Port, id StateID, n int) ([]byte, *ot.ExtSender, error) {
	msgA, err := p.Recv(SubMsgA, BodyLen(SubMsgA, n))
	if err != nil {
		return nil, nil, err
	}
	sender := ot.NewExtSender()
	msgBs, err := sender.BaseRespond([][]byte{msgA})
	if err != nil {
		return nil, nil, err
	}
	keptSenders.keep(id, sender)
	u, err := exchange(p, message(SubMsgB, msgBs), SubU, n)
	return u, sender, err
}

// exchange sends msg over p and receives the reply due, message want of a
// run of n fragments.
func exchange(p Port, msg []byte, want byte, n int) ([]byte, error) {
	if err := p.Send(msg); err != nil {
		return nil, err
	}
	return p.Recv(want, BodyLen(want, n))
}

// errCorrection is appendMasked's error: only a correction matrix of the
// wrong shape fails, and the error carries nothing derived from the pairs.
var errCorrection = errors.New("ruleprep: correction matrix of the wrong shape")

// appendMasked appends the SubMasked message for the correction matrix u to
// dst: the OT encryption of the secret label pairs, two blocks per wire.
func appendMasked(dst []byte, s *ot.ExtSender, u []byte, pairs [][2]bbcrypto.Block) ([]byte, error) {
	masked, err := s.Send(columns(u, ot.BaseOTs), pairs)
	if err != nil {
		return nil, errCorrection
	}
	return appendPairs(append(dst, SubMasked), masked), nil
}

// appendPairs appends the blocks of pairs, in order, to dst, growing dst
// once; parsePairs inverts it.
func appendPairs(dst []byte, pairs [][2]bbcrypto.Block) []byte {
	dst = slices.Grow(dst, 2*len(pairs)*bbcrypto.BlockSize)
	for i := range pairs {
		dst = append(append(dst, pairs[i][0][:]...), pairs[i][1][:]...)
	}
	return dst
}

func parsePairs(body []byte) [][2]bbcrypto.Block {
	pairs := make([][2]bbcrypto.Block, len(body)/(2*bbcrypto.BlockSize))
	for j := range pairs {
		copy(pairs[j][0][:], body[2*j*bbcrypto.BlockSize:])
		copy(pairs[j][1][:], body[(2*j+1)*bbcrypto.BlockSize:])
	}
	return pairs
}

// message builds a message from its subtype and the parts of its body, in
// one allocation.
func message(sub byte, parts [][]byte) []byte {
	return slices.Concat(append([][]byte{{sub}}, parts...)...)
}

// columns splits b into k equal parts, each capped at its own end.
func columns(b []byte, k int) [][]byte {
	w, out := len(b)/k, make([][]byte, k)
	for i := range out {
		out[i] = b[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

// Dial is what one Run carries beyond the request. The zero Dial keeps
// nothing and records no span.
type Dial struct {
	// Kept is the base phase kept with this server: Run proposes resuming
	// it, and keeps in it the one it runs when nothing is kept. Nil sends
	// the all-zero ID and always runs a base phase.
	Kept *KeptBase
	// Trace records Run's spans as children of Prep, the middlebox's prep
	// span.
	Trace *obs.FlowRecorder
	Prep  obs.SpanCtx
}

// run is one Run's state: its Middlebox and Dial, its OT with the server —
// the state ID and position it proposes, the receiver at that position
// when a state is kept, the server's verdict and the outcome — and the
// garbling scratch it evaluates every fragment in.
type run struct {
	*Middlebox
	Dial
	id      StateID
	c       uint32
	recv    *ot.ExtReceiver
	resumed bool
	outcome string
	sc      garble.Scratch // every fragment's evaluation
}

// Run runs the middlebox's side with both endpoints at once, a goroutine
// per leg: the client's digest messages, keeping each wire's commitment at
// the middlebox's choice bit; the server's circuits, each hashed once as it
// is parsed, then one OT extension for every fragment's choice bits,
// resumed from d.Kept when the server accepts it. Then it verifies and
// evaluates every fragment and sends each endpoint Done. It returns every
// fragment's token key (nil if unauthorized), or the failed legs' errors
// joined, or the first verification error (ErrLabelCommitment for a label
// that fails its commitment); and how the base phase went with d.Kept
// (ResumeHit, ResumeMiss or ResumeRefused), "" without one or when Run
// failed before the server's verdict. A Run that fails forgets the state it
// proposed: the two sides may disagree on it. Each leg records a labels
// span, the server's also ot_base (empty when resumed) and ot_ext spans,
// and each fragment a rule_enc span; they follow one another from Run's
// entry to its return.
func (m *Middlebox) Run(client, server Port, d Dial) (keys []*dpienc.TokenKey, outcome string, err error) {
	start := time.Now()
	r := &run{Middlebox: m, Dial: d}
	if d.Kept != nil {
		r.id, r.c, r.recv = d.Kept.reserve()
		defer func() {
			if err != nil {
				d.Kept.drop(r.id)
			}
		}()
	}
	var (
		jobs   [2][]*FragmentJob
		labels []bbcrypto.Block
		ends   [2]time.Time
		errs   [2]error
		wg     sync.WaitGroup
	)
	ports := [2]Port{client, server}
	for leg, p := range ports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs[leg], ends[leg], errs[leg] = r.recvJobs(p, leg == 0, start)
			if leg == 1 && errs[leg] == nil {
				labels, ends[leg], errs[leg] = r.transfer(p, ends[leg])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return nil, r.outcome, err
	}
	// Fragment 0's span starts where the slower leg ended.
	if ends[0].After(ends[1]) {
		ends[1] = ends[0]
	}
	keys, err = r.evaluate(jobs[0], jobs[1], labels, ends[1], func() error {
		for _, p := range ports {
			if err := p.Send([]byte{SubDone}); err != nil {
				return err
			}
		}
		return nil
	})
	return keys, r.outcome, err
}

// errVerdict refuses a verdict byte other than 0 or 1, and a 1 for a
// Start that proposed nothing to resume.
var errVerdict = errors.New("ruleprep: server's verdict is neither a base phase nor the resumption proposed")

// recvJobs sends p's endpoint Start (a client) or Resume (a server, whose
// verdict it then reads) and receives its jobs in index order: a client's
// digest messages, each keeping only the commitments at the fragment's
// choice bits, or a server's circuit messages, each hashed as it is
// parsed. Its labels span, which includes the wait for the endpoint's
// garbling, runs from start; it returns where the span ended.
func (r *run) recvJobs(p Port, client bool, start time.Time) ([]*FragmentJob, time.Time, error) {
	n := r.NumFragments()
	sub, sp := SubCircuit, obs.Span{Dir: "server", Name: obs.SpanPrepLabels}
	if client {
		sub, sp.Dir = SubDigest, "client"
		if err := p.Send(binary.BigEndian.AppendUint32([]byte{SubStart}, uint32(n))); err != nil {
			return nil, start, err
		}
	} else if err := r.propose(p); err != nil {
		return nil, start, err
	}
	jobs := make([]*FragmentJob, n)
	for i := range jobs {
		body, err := p.Recv(sub, BodyLen(sub, n))
		if err != nil {
			return nil, start, err
		}
		if client {
			jobs[i], err = ParseDigestMsg(body, r.Choices(i))
		} else {
			jobs[i], err = ParseCircuitMsg(body)
		}
		if err != nil {
			return nil, start, err
		}
		if jobs[i].Index != i {
			return nil, start, errors.New("ruleprep: bad fragment index")
		}
		sp.Bytes += len(body)
		if g := jobs[i].G; g != nil {
			st := g.Stats()
			sp.Gates, sp.Rows = sp.Gates+st.Gates, sp.Rows+st.TableRows
		}
	}
	return jobs, r.span(start, sp), nil
}

// propose sends the server its Resume, proposing this Run's state ID and
// position, and reads the server's verdict.
func (r *run) propose(p Port) error {
	verdict, err := exchange(p, appendResume(nil, r.NumFragments(), r.id, r.c), SubVerdict, r.NumFragments())
	if err != nil {
		return err
	}
	switch {
	case verdict[0] == verdictResume && r.recv != nil:
		r.resumed, r.outcome = true, ResumeHit
	case verdict[0] != verdictBase:
		return errVerdict
	case r.recv != nil:
		r.outcome = ResumeRefused
		r.Kept.drop(r.id)
	case r.Kept != nil:
		r.outcome = ResumeMiss
	}
	return nil
}

// transfer runs oblivious transfer with the server for every fragment's
// choice bits and returns the labels it delivered, OTWires per fragment:
// at the reserved position of the kept base phase when the server resumed
// it, else after a base phase. Its ot_base and ot_ext spans follow one
// another from start; it returns where the second ended.
func (r *run) transfer(p Port, start time.Time) ([]bbcrypto.Block, time.Time, error) {
	recv, base := r.recv, obs.Span{Dir: "server", Name: obs.SpanPrepOTBase}
	if !r.resumed {
		var err error
		if recv, base.Bytes, err = r.baseOT(p); err != nil {
			return nil, start, err
		}
	}
	start = r.span(start, base)

	u, err := recv.Correct(r.choices)
	if err != nil {
		return nil, start, err
	}
	masked, err := exchange(p, message(SubU, u), SubMasked, r.NumFragments())
	if err != nil {
		return nil, start, err
	}
	labels, err := recv.Receive(parsePairs(masked), r.choices)
	if err != nil {
		return nil, start, err
	}
	st := recv.Stats()
	return labels, r.span(start, obs.Span{Dir: "server", Name: obs.SpanPrepOTExt, Bytes: st.CorrectionBytes + st.MaskedBytes, Rows: st.Wires}), nil
}

// baseOT runs the base phase with the server over p, keeping its outcome
// in the Dial's KeptBase when this Run proposed a fresh ID, and returns the
// receiver and the length of the server's reply.
func (r *run) baseOT(p Port) (*ot.ExtReceiver, int, error) {
	recv, msgAs, err := ot.NewExtReceiver()
	if err != nil {
		return nil, 0, err
	}
	msgB, err := exchange(p, message(SubMsgA, msgAs), SubMsgB, r.NumFragments())
	if err != nil {
		return nil, 0, err
	}
	if err := recv.Base(columns(msgB, ot.BaseOTs)); err != nil {
		return nil, 0, err
	}
	if r.Kept != nil && r.c == 0 {
		r.Kept.keep(r.id, recv)
	}
	return recv, len(msgB), nil
}

// evaluate verifies and evaluates every fragment from the client's digest
// jobs and the server's circuit jobs and OT labels (ruleEnc); unauthorized
// keys are nil, and any other failure yields no key at all. Each
// fragment's rule_enc span starts where the last stage ended, the first at
// start. finish runs before the last span ends (Run sends Done there), and
// its error is evaluate's.
func (r *run) evaluate(client, server []*FragmentJob, labels []bbcrypto.Block, start time.Time, finish func() error) ([]*dpienc.TokenKey, error) {
	keys, vals := make([]*dpienc.TokenKey, r.NumFragments()), make([]dpienc.TokenKey, r.NumFragments())
	var sp obs.Span
	for i := range keys {
		if i > 0 {
			start = r.span(start, sp)
		}
		st := server[i].G.Stats()
		sp = obs.Span{Name: obs.SpanPrepRuleEnc, Gates: st.Gates, Rows: st.TableRows, Bytes: st.WireBytes}
		err := r.ruleEnc(i, client[i], server[i], labels[i*OTWires:(i+1)*OTWires], &vals[i])
		if err == ErrUnauthorized {
			continue
		}
		if err != nil {
			sp.Err = err.Error()
			r.span(start, sp)
			return nil, err
		}
		keys[i] = &vals[i]
	}
	err := finish()
	if len(keys) > 0 {
		r.span(start, sp)
	}
	return keys, err
}

// ruleEnc is Run's finishing work for fragment i: the client's digest must
// equal the server's, each label the server's OT delivered must match the
// client's commitment at its choice bit, and then the server's circuit is
// evaluated on them, in the Run's scratch, into *key.
func (r *run) ruleEnc(i int, client, server *FragmentJob, labels []bbcrypto.Block, key *dpienc.TokenKey) error {
	if err := r.Verify(client, server); err != nil {
		return err
	}
	if err := checkCommitments(i, client.Commits, labels, r.Choices(i)); err != nil {
		return err
	}
	return evaluate(&r.sc, server, labels, key)
}

// span records sp as a child of the Dial's prep span, from start to now,
// and returns now: where the next stage starts, so that consecutive stages
// leave no gap between them.
func (r *run) span(start time.Time, sp obs.Span) time.Time {
	end := time.Now()
	r.Trace.Span(r.Prep.Child(), start, sp)
	return end
}
