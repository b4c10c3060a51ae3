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
// allows for its role: Start, then each fragment's circuit message (a
// server) or digest message (a client), then a server's OT sender half,
// returning nil at Done; anything else is an error. The endpoint never
// learns the rules: it garbles the generic F, and a server hands over
// labels only through OT, a client only commitments to them.
func (e *Endpoint) Serve(p Port, client bool) error {
	body, err := p.Recv(SubStart, BodyLen(SubStart, 0))
	if err != nil {
		return err
	}
	// The count is the peer's word; GarbleEach refuses one over MaxFragments
	// and holds a bounded number of circuits however slowly the peer reads.
	n := int(binary.BigEndian.Uint32(body))
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
// per leg: the client's digest messages, keeping each wire's commitment at
// the middlebox's choice bit; the server's circuits, each hashed once as it
// is parsed, then one OT extension for every fragment's choice bits. Then
// it verifies and evaluates every fragment and sends each endpoint Done. It
// returns every fragment's token key (nil if unauthorized), or the failed
// legs' errors joined, or the first verification error (ErrLabelCommitment
// for a label that fails its commitment). Each leg records a labels span,
// the server's also ot_base and ot_ext spans, and each fragment a rule_enc
// span; they follow one another from Run's entry to its return.
func (m *Middlebox) Run(client, server Port) ([]*dpienc.TokenKey, error) {
	start := time.Now()
	choices := m.choices()
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
			jobs[leg], ends[leg], errs[leg] = m.recvJobs(p, leg == 0, choices, start)
			if leg == 1 && errs[leg] == nil {
				labels, ends[leg], errs[leg] = m.transfer(p, choices, ends[leg])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	// Fragment 0's span starts where the slower leg ended.
	if ends[0].After(ends[1]) {
		ends[1] = ends[0]
	}
	return m.evaluate(jobs[0], jobs[1], labels, choices, ends[1], func() error {
		for _, p := range ports {
			if err := p.Send([]byte{SubDone}); err != nil {
				return err
			}
		}
		return nil
	})
}

// recvJobs sends p's endpoint Start and receives its jobs in index order:
// a client's digest messages, each keeping only the commitments at the
// fragment's choice bits, or a server's circuit messages, each hashed as it
// is parsed. Its labels span, which includes the wait for the endpoint's
// garbling, runs from start; it returns where the span ended.
func (m *Middlebox) recvJobs(p Port, client bool, choices []bool, start time.Time) ([]*FragmentJob, time.Time, error) {
	n := m.NumFragments()
	if err := p.Send(binary.BigEndian.AppendUint32([]byte{SubStart}, uint32(n))); err != nil {
		return nil, start, err
	}
	sub, sp := SubCircuit, obs.Span{Dir: "server", Name: obs.SpanPrepLabels}
	if client {
		sub, sp.Dir = SubDigest, "client"
	}
	jobs := make([]*FragmentJob, n)
	for i := range jobs {
		body, err := p.Recv(sub, BodyLen(sub, n))
		if err != nil {
			return nil, start, err
		}
		if client {
			jobs[i], err = ParseDigestMsg(body, choices[i*OTWires:(i+1)*OTWires])
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
	return jobs, m.span(start, sp), nil
}

// transfer runs oblivious transfer with the server for every fragment's
// choice bits and returns the labels it delivered, OTWires per fragment.
// Its ot_base and ot_ext spans follow one another from start; it returns
// where the second ended.
func (m *Middlebox) transfer(p Port, choices []bool, start time.Time) ([]bbcrypto.Block, time.Time, error) {
	n := m.NumFragments()
	recv, msgAs, err := ot.NewExtReceiver()
	if err != nil {
		return nil, start, err
	}
	msgB, err := exchange(p, message(SubMsgA, msgAs), SubMsgB, n)
	if err != nil {
		return nil, start, err
	}
	start = m.span(start, obs.Span{Dir: "server", Name: obs.SpanPrepOTBase, Bytes: len(msgB)})

	u, err := recv.Extend(columns(msgB, ot.BaseOTs), choices)
	if err != nil {
		return nil, start, err
	}
	masked, err := exchange(p, message(SubU, u), SubMasked, n)
	if err != nil {
		return nil, start, err
	}
	labels, err := recv.Receive(parsePairs(masked), choices)
	if err != nil {
		return nil, start, err
	}
	st := recv.Stats()
	return labels, m.span(start, obs.Span{Dir: "server", Name: obs.SpanPrepOTExt, Bytes: st.CorrectionBytes + st.MaskedBytes, Rows: st.Wires}), nil
}

// choices returns the OT choice bits of every fragment, in fragment order.
func (m *Middlebox) choices() []bool {
	out := make([]bool, 0, m.NumFragments()*OTWires)
	for i := 0; i < m.NumFragments(); i++ {
		out = append(out, m.Choices(i)...)
	}
	return out
}
