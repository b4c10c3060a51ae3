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
)

// BodyLen is the length of every body of message sub in a run of n
// fragments, or -1 for an unknown subtype.
func BodyLen(sub byte, n int) int {
	switch sub {
	case SubStart:
		return 4
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
// allows: Start, then each fragment's circuit message (a server) or digest
// (a client), then the OT sender's half, returning nil at Done; anything
// else is an error. The endpoint never learns the rules: it garbles the
// generic F and hands over labels only through OT.
func (e *Endpoint) Serve(p Port, client bool) error {
	body, err := p.Recv(SubStart, BodyLen(SubStart, 0))
	if err != nil {
		return err
	}
	// The count is the peer's word; GarbleEach refuses one over MaxFragments
	// and holds a bounded number of circuits however slowly the peer reads.
	n := int(binary.BigEndian.Uint32(body))
	var (
		pairs [][2]bbcrypto.Block
		msg   []byte // the outgoing message, reused by every send
	)
	err = e.GarbleEach(n, func(job *FragmentJob) error {
		msg = job.AppendCircuitMsg(append(msg[:0], SubCircuit))
		if client { // DESIGN.md substitution 1: the digest stands in for the circuit
			job.Digest = sha256.Sum256(msg[1:])
			msg = job.AppendDigestMsg(append(msg[:0], SubDigest))
		}
		pairs = append(pairs, job.OTPairs()...)
		return p.Send(msg)
	})
	if err != nil {
		return err
	}
	msgA, err := p.Recv(SubMsgA, BodyLen(SubMsgA, n))
	if err != nil {
		return err
	}
	sender := ot.NewExtSender()
	msgBs, err := sender.BaseRespond([][]byte{msgA})
	if err != nil {
		return err
	}
	u, err := exchange(p, message(SubMsgB, msgBs), SubU, n)
	if err != nil {
		return err
	}
	if msg, err = appendMasked(msg[:0], sender, u, pairs); err != nil {
		return err
	}
	_, err = exchange(p, msg, SubDone, n)
	return err
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

// Run runs the middlebox's side with both endpoints at once, a goroutine
// per leg (the client's digests or the server's circuits, each hashed once
// as it is parsed, then one OT extension for every fragment's choice bits);
// then it verifies and evaluates every fragment and sends each endpoint
// Done. It returns every fragment's token key (nil if unauthorized), or the
// failed legs' errors joined, or the first verification error. Each leg
// records labels, ot_base and ot_ext spans, each fragment a rule_enc span.
func (m *Middlebox) Run(client, server Port) ([]*dpienc.TokenKey, error) {
	choices := m.choices()
	var (
		jobs   [2][]*FragmentJob
		labels [2][]bbcrypto.Block
		errs   [2]error
		wg     sync.WaitGroup
	)
	ports := [2]Port{client, server}
	for leg, p := range ports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs[leg], labels[leg], errs[leg] = m.runLeg(p, leg == 0, choices)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	keys, err := m.evaluate(jobs, labels)
	for _, p := range ports {
		if err == nil {
			err = p.Send([]byte{SubDone})
		}
	}
	return keys, err
}

// runLeg runs one leg up to its OT labels: it returns the endpoint's jobs
// in index order and the labels OT delivered, OTWires per fragment.
func (m *Middlebox) runLeg(p Port, client bool, choices []bool) ([]*FragmentJob, []bbcrypto.Block, error) {
	n := m.NumFragments()
	if err := p.Send(binary.BigEndian.AppendUint32([]byte{SubStart}, uint32(n))); err != nil {
		return nil, nil, err
	}
	sub, parse, sp := SubCircuit, ParseCircuitMsg, obs.Span{Dir: "server", Name: obs.SpanPrepLabels}
	if client {
		sub, parse, sp.Dir = SubDigest, ParseDigestMsg, "client"
	}
	// The labels span includes the wait for the endpoint's garbling.
	start := time.Now()
	jobs := make([]*FragmentJob, n)
	for i := range jobs {
		body, err := p.Recv(sub, BodyLen(sub, n))
		if err != nil {
			return nil, nil, err
		}
		if jobs[i], err = parse(body); err != nil {
			return nil, nil, err
		}
		if jobs[i].Index != i {
			return nil, nil, errors.New("ruleprep: bad fragment index")
		}
		sp.Bytes += len(body)
		if g := jobs[i].G; g != nil {
			st := g.Stats()
			sp.Gates, sp.Rows = sp.Gates+st.Gates, sp.Rows+st.TableRows
		}
	}
	m.fr.Span(m.tctx.Child(), start, sp)

	start = time.Now()
	recv, msgAs, err := ot.NewExtReceiver()
	if err != nil {
		return nil, nil, err
	}
	msgB, err := exchange(p, message(SubMsgA, msgAs), SubMsgB, n)
	if err != nil {
		return nil, nil, err
	}
	m.fr.Span(m.tctx.Child(), start, obs.Span{Dir: sp.Dir, Name: obs.SpanPrepOTBase, Bytes: len(msgB)})

	start = time.Now()
	u, err := recv.Extend(columns(msgB, ot.BaseOTs), choices)
	if err != nil {
		return nil, nil, err
	}
	masked, err := exchange(p, message(SubU, u), SubMasked, n)
	if err != nil {
		return nil, nil, err
	}
	labels, err := recv.Receive(parsePairs(masked), choices)
	if err != nil {
		return nil, nil, err
	}
	st := recv.Stats()
	m.fr.Span(m.tctx.Child(), start, obs.Span{Dir: sp.Dir, Name: obs.SpanPrepOTExt, Bytes: st.CorrectionBytes + st.MaskedBytes, Rows: st.Wires})
	return jobs, labels, nil
}

// choices returns the OT choice bits of every fragment, in fragment order.
func (m *Middlebox) choices() []bool {
	out := make([]bool, 0, m.NumFragments()*OTWires)
	for i := 0; i < m.NumFragments(); i++ {
		out = append(out, m.Choices(i)...)
	}
	return out
}

// evaluate verifies and evaluates every fragment from the client's jobs and
// labels (index 0) and the server's (index 1); unauthorized keys are nil.
func (m *Middlebox) evaluate(jobs [2][]*FragmentJob, labels [2][]bbcrypto.Block) ([]*dpienc.TokenKey, error) {
	keys := make([]*dpienc.TokenKey, m.NumFragments())
	for i := range keys {
		lo, hi := i*OTWires, (i+1)*OTWires
		key, err := m.VerifyAndEvaluate(i, jobs[0][i], jobs[1][i], labels[0][lo:hi], labels[1][lo:hi])
		if err == ErrUnauthorized {
			continue
		}
		if err != nil {
			return nil, err
		}
		keys[i] = &key
	}
	return keys, nil
}
