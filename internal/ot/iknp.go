// IKNP oblivious-transfer extension: a small number (128) of base OTs plus
// symmetric cryptography yields millions of OTs, which is what makes
// per-rule label transfer affordable during BlindBox rule preparation.

package ot

import (
	"crypto/elliptic"
	"errors"

	"repro/internal/bbcrypto"
)

// kappa is the computational security parameter: the number of base OTs
// and matrix columns.
const kappa = 128

// BaseOTs is the number of base OTs, of base-OT responses (BaseRespond's
// result) and of correction columns (Extend's); PointSize is the length of
// every base-OT message, one uncompressed P-256 point. Together with the
// transfer width they fix the length of every message of an extension run.
const (
	BaseOTs   = kappa
	PointSize = pointSize
)

// rowHash is the extension's correlation-robust row hash. Its fixed key is
// public and distinct from the garbling hash's.
var rowHash = bbcrypto.NewFixedKeyHash(Block([]byte("blindbox iknp cr")))

// ExtSender is the sender of the extended OTs (in BlindBox: the endpoint,
// which holds the label pairs). Internally it plays the *receiver* of the
// base OTs with a random choice vector s. It extends at one position (At):
// dial c of a kept base phase uses rows [c·2³², c·2³² + m), every column
// PRG read from AES-CTR block c·2²⁵ on, so no two dials share a PRG block
// or a row tweak. A fresh sender is at position 0.
type ExtSender struct {
	//bb:secret
	s Block // choice bit i is bit i%8 of byte i/8
	//bb:secret
	seeds [kappa]Block // k_i^{s_i}
	c     uint32
}

// ExtReceiver is the receiver of the extended OTs (in BlindBox: the
// middlebox, choosing labels by its rule bits). Internally it plays the
// *sender* of the base OTs. Like ExtSender it extends at one position.
type ExtReceiver struct {
	base *baseSender // nil in a receiver made by At
	//bb:secret
	keys [kappa][2]Block // k_i^0, k_i^1
	c    uint32
	m    int
	t    []byte // kappa columns of (m+7)/8 bytes, column i at i*(m+7)/8
}

// NewExtReceiver starts the base phase, returning the base-OT first
// messages to send to the ExtSender: one point for the whole batch.
func NewExtReceiver() (*ExtReceiver, [][]byte, error) {
	base, msgA, err := newBaseSender()
	if err != nil {
		return nil, nil, err
	}
	return &ExtReceiver{base: base}, [][]byte{msgA}, nil
}

// NewExtSender creates the sender with a fresh random base-choice vector.
func NewExtSender() *ExtSender {
	return &ExtSender{s: bbcrypto.RandomBlock()}
}

// At returns a sender that shares s's base phase and extends at position
// c. The caller must never use one position twice.
func (s *ExtSender) At(c uint32) *ExtSender {
	at := *s
	at.c = c
	return &at
}

// At returns a receiver that shares r's base phase (Base must have run) and
// extends at position c. The caller must never use one position twice.
func (r *ExtReceiver) At(c uint32) *ExtReceiver {
	return &ExtReceiver{keys: r.keys, c: c}
}

// bit returns bit i of b, 0 or 1.
func bit(b *Block, i int) int { return int(b[i/8]>>(i%8)) & 1 }

// BaseRespond consumes the receiver's base-OT first messages and returns
// the kappa responses. After this, the ExtSender holds the seeds chosen by
// s. Any message count other than one is a *CountError.
func (s *ExtSender) BaseRespond(msgAs [][]byte) ([][]byte, error) {
	if len(msgAs) != 1 {
		return nil, &CountError{What: "base points", Got: len(msgAs), Want: 1}
	}
	ax, ay := elliptic.Unmarshal(curve, msgAs[0])
	if ax == nil {
		return nil, errBadPoint
	}
	msgBs := make([][]byte, kappa)
	for i := range msgBs {
		msgB, key, err := baseReceive(i, bit(&s.s, i), ax, ay, msgAs[0])
		if err != nil {
			return nil, err
		}
		msgBs[i] = msgB
		s.seeds[i] = key
	}
	return msgBs, nil
}

// Extend consumes the base responses and the receiver's m choice bits,
// returning the correction matrix u (kappa columns of m bits) for the
// sender: Base, then Correct.
func (r *ExtReceiver) Extend(msgBs [][]byte, choices []bool) ([][]byte, error) {
	if err := r.Base(msgBs); err != nil {
		return nil, err
	}
	return r.Correct(choices)
}

// Base consumes the base responses and keeps both keys of every base OT,
// from which r and every receiver At makes from it extend (Correct).
// Anything but kappa responses is a *CountError.
func (r *ExtReceiver) Base(msgBs [][]byte) error {
	if len(msgBs) != kappa {
		return &CountError{What: "base responses", Got: len(msgBs), Want: kappa}
	}
	if r.base == nil {
		return errors.New("ot: no base phase to complete")
	}
	for i := range r.keys {
		k0, k1, err := r.base.keys(i, msgBs[i])
		if err != nil {
			return err
		}
		r.keys[i] = [2]Block{k0, k1}
	}
	return nil
}

// maxRows bounds one extension: a position owns 2³² rows.
const maxRows = 1 << 32

// errTooWide refuses an extension that would run into the next position.
var errTooWide = errors.New("ot: extension wider than one position")

// Correct returns the correction matrix u (kappa columns of m bits) for
// the receiver's m choice bits at its position, and fixes the T matrix
// used to decrypt the final messages.
func (r *ExtReceiver) Correct(choices []bool) ([][]byte, error) {
	m := len(choices)
	if uint64(m) > maxRows {
		return nil, errTooWide
	}
	cols := (m + 7) / 8
	choiceBits := make([]byte, cols)
	for j, c := range choices {
		if c {
			choiceBits[j/8] |= 1 << uint(j%8)
		}
	}
	t := make([]byte, kappa*cols)
	ub := make([]byte, kappa*cols)
	u := make([][]byte, kappa)
	for i := range u {
		ti, ui := t[i*cols:(i+1)*cols], ub[i*cols:(i+1)*cols:(i+1)*cols]
		prgAt(ti, &r.keys[i][0], r.c)
		prgAt(ui, &r.keys[i][1], r.c)
		for b := range ui {
			ui[b] ^= ti[b] ^ choiceBits[b]
		}
		u[i] = ui
	}
	r.m, r.t = m, t
	return u, nil
}

// prgAt fills dst with the AES-CTR stream of key from block c·2²⁵ on, the
// stretch position c owns: at c = 0 it is bbcrypto.NewPRG(key)'s stream.
// The CTR stays on the stack, so a column costs no allocation.
func prgAt(dst []byte, key *Block, c uint32) {
	var ctr bbcrypto.CTR
	ctr.Reset(key, uint64(c)<<25)
	_, _ = ctr.Read(dst) // CTR.Read never fails
}

// tweak is the row hash's tweak for row j at position c: the row's global
// index, so that no two rows of one base phase share one.
func tweak(c uint32, j int) uint64 { return uint64(c)<<32 | uint64(j) }

// Send consumes the correction matrix and the m message pairs, producing
// the masked pairs for the receiver, at the sender's position.
func (s *ExtSender) Send(u [][]byte, pairs [][2]Block) ([][2]Block, error) {
	if len(u) != kappa {
		return nil, &CountError{What: "correction columns", Got: len(u), Want: kappa}
	}
	m := len(pairs)
	if uint64(m) > maxRows {
		return nil, errTooWide
	}
	cols := (m + 7) / 8
	// Column i of Q: PRG(seed_i) ⊕ s_i·u_i, with s_i applied as a mask.
	q := make([]byte, kappa*cols)
	for i, ui := range u {
		if len(ui) != cols {
			return nil, errors.New("ot: correction column of the wrong length")
		}
		qi := q[i*cols : (i+1)*cols]
		prgAt(qi, &s.seeds[i], s.c)
		mask := -byte(bit(&s.s, i))
		for b := range qi {
			qi[b] ^= ui[b] & mask
		}
	}
	// Row j of Q is t_j ⊕ c_j·s: the receiver knows the hash of one of
	// q_j and q_j ⊕ s, the one its choice c_j selects. Two rows a call.
	rows := transpose(q, m)
	out := make([][2]Block, m)
	for j := 0; j < m; j += 2 {
		j1 := min(j+1, m-1) // an odd m hashes its last row twice
		h := [4]Block{rows[j], rows[j].XOR(s.s), rows[j1], rows[j1].XOR(s.s)}
		tj, tj1 := tweak(s.c, j), tweak(s.c, j1)
		rowHash.CRHash4(&h, &h, &[4]uint64{tj, tj, tj1, tj1})
		out[j] = [2]Block{pairs[j][0].XOR(h[0]), pairs[j][1].XOR(h[1])}
		out[j1] = [2]Block{pairs[j1][0].XOR(h[2]), pairs[j1][1].XOR(h[3])}
	}
	return out, nil
}

// ExtStats sizes one OT extension run for observability: the number of
// extended transfers and the bytes moved in each direction.
type ExtStats struct {
	// Wires is the number of extended OTs (choice bits).
	Wires int
	// CorrectionBytes is the size of the IKNP correction matrix u.
	CorrectionBytes int
	// MaskedBytes is the size of the masked label pairs.
	MaskedBytes int
}

// Stats reports the sizes of the extension run after Extend has fixed the
// transfer width; all fields are zero before then.
func (r *ExtReceiver) Stats() ExtStats {
	cols := (r.m + 7) / 8
	return ExtStats{
		Wires:           r.m,
		CorrectionBytes: kappa * cols,
		MaskedBytes:     r.m * 2 * bbcrypto.BlockSize,
	}
}

// Receive unmasks the chosen message of each pair.
func (r *ExtReceiver) Receive(masked [][2]Block, choices []bool) ([]Block, error) {
	if len(masked) != len(choices) || len(choices) != r.m {
		return nil, errors.New("ot: receive length mismatch")
	}
	// Four rows of T a call; past the end, the last row again.
	rows := transpose(r.t, r.m)
	out := make([]Block, r.m)
	for j := 0; j < r.m; j += 4 {
		var h [4]Block
		var tw [4]uint64
		for l := range h {
			jl := min(j+l, r.m-1)
			h[l], tw[l] = rows[jl], tweak(r.c, jl)
		}
		rowHash.CRHash4(&h, &h, &tw)
		for l := 0; l < 4 && j+l < r.m; l++ {
			c := 0
			if choices[j+l] {
				c = 1
			}
			out[j+l] = masked[j+l][c].XOR(h[l])
		}
	}
	return out, nil
}

// transpose returns the m rows of the kappa × m bit matrix held column-major
// in cols — kappa columns of (m+7)/8 bytes, bit j of column i at byte j/8,
// bit j%8 — as Blocks, bit i of a row at byte i/8, bit i%8. It moves one
// 8 × 8 bit block per step: eight column bytes gathered into a word,
// transposed in place, scattered to eight rows.
func transpose(cols []byte, m int) []Block {
	stride := (m + 7) / 8
	rows := make([]Block, 8*stride)
	for jb := 0; jb < stride; jb++ {
		for ib := 0; ib < kappa/8; ib++ {
			var x uint64
			for k := 0; k < 8; k++ {
				x |= uint64(cols[(8*ib+k)*stride+jb]) << (8 * k)
			}
			x = transpose8(x)
			for r := 0; r < 8; r++ {
				rows[8*jb+r][ib] = byte(x >> (8 * r))
			}
		}
	}
	return rows[:m]
}

// transpose8 transposes the 8 × 8 bit matrix whose entry (r, c) is bit
// 8r + c of x (Hacker's Delight §7-3).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}

// ExtTransfer runs a complete in-process OT extension for tests and
// single-process callers: the receiver learns pairs[j][choices[j]] for
// every j and nothing else.
func ExtTransfer(pairs [][2]Block, choices []bool) ([]Block, error) {
	recv, msgAs, err := NewExtReceiver()
	if err != nil {
		return nil, err
	}
	send := NewExtSender()
	msgBs, err := send.BaseRespond(msgAs)
	if err != nil {
		return nil, err
	}
	u, err := recv.Extend(msgBs, choices)
	if err != nil {
		return nil, err
	}
	masked, err := send.Send(u, pairs)
	if err != nil {
		return nil, err
	}
	return recv.Receive(masked, choices)
}
