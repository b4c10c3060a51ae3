// Package garble implements Yao's garbled circuits in the JustGarble style
// the paper's prototype uses (§3.3, §6): free-XOR (Kolesnikov–Schneider),
// point-and-permute, a fixed-key AES hash so that garbling and evaluation
// cost a small constant number of AES calls per AND gate, and
// Zahur–Rosulek–Evans half gates: two ciphertexts per AND gate, four hashes
// to garble one and two to evaluate it. Half gates run on wire labels held
// as big-endian word pairs (bbcrypto.Block.Words), one FixedKeyHash.Hash1x4
// per AND gate at the garbler and per two AND gates at the evaluator.
//
// BlindBox requires garbling to be *deterministic given a shared seed*:
// both endpoints garble the same function with randomness derived from
// krand, and the middlebox accepts the server's garbled circuit only if the
// client's SHA-256 of its own circuit matches it (§3.3 rule preparation step
// 2.2, as a hashed-circuit commitment), which protects against one
// malicious endpoint garbling incorrectly. Marshal's encoding is canonical,
// so equal digests mean equal circuits.
package garble

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/bbcrypto"
	"repro/internal/circuit"
)

// Block is re-exported for convenience.
type Block = bbcrypto.Block

// Garbled is the material the evaluator (the middlebox) receives: the
// AND-gate tables plus output-decoding information. It reveals nothing
// about wire values beyond what evaluation on one input exposes.
type Garbled struct {
	// FixedKey keys the garbling hash; it is public.
	FixedKey Block
	// Rows is the number of transmitted rows per AND gate. It is on the
	// wire, and the only value Garble writes and Unmarshal and Eval
	// accept is 2: the half-gate pair.
	Rows int
	// Tables holds Rows blocks per AND gate, flattened in gate order: the
	// generator and evaluator ciphertexts of a half gate.
	Tables []Block
	// Decode holds one decode entry per circuit output: for wire outputs,
	// the permute bit of the false label; for constant outputs, the value.
	Decode []DecodeEntry
}

// DecodeEntry decodes one output wire.
type DecodeEntry struct {
	// Const marks outputs that folded to a constant at build time.
	Const bool
	// Val is the constant value (Const=true) or the permute bit d such
	// that output = LSB(label) XOR d (Const=false).
	Val bool
}

// Labels is the garbler's secret: the false-label of every input wire and
// the global free-XOR offset R. The true label of wire i is L0[i] XOR R.
//
//bb:secret
type Labels struct {
	L0 []Block
	R  Block
}

// Pair returns (false-label, true-label) for input wire i — the OT sender
// inputs when the evaluator chooses the bit obliviously.
func (l *Labels) Pair(i int) (Block, Block) {
	return l.L0[i], l.L0[i].XOR(l.R)
}

// For returns the label encoding the given bit on input wire i — used for
// the garbler's own inputs, which are handed to the evaluator directly.
func (l *Labels) For(i int, bit bool) Block {
	if bit {
		return l.L0[i].XOR(l.R)
	}
	return l.L0[i]
}

// Garble garbles the circuit with half gates and randomness drawn from rng.
// Given equal circuits, fixed keys and rng streams, the output is
// bit-identical — the property the middlebox's equality check relies on.
// It is Scratch.Garble on a scratch of its own, so the result is the
// caller's.
func Garble(c *circuit.Circuit, fixedKey Block, rng io.Reader) (*Garbled, *Labels, error) {
	return new(Scratch).Garble(c, fixedKey, rng)
}

// Scratch is the memory of one garbling or evaluation at a time, reused from
// one circuit to the next: every wire's label in words
// (bbcrypto.Block.Words), the seed bytes a garbling reads, the evaluator's
// input labels and decoded outputs, the garbled tables, decode entries and
// input labels a garbling writes, and the fixed-key hash, rekeyed in place
// for each circuit. The kernels write every wire before they read it, so
// reused memory is never zeroed. What a Scratch method returns lives in the
// scratch and is overwritten by its next call. A Scratch is not safe for
// concurrent use; the zero value is ready.
//
//bb:secret
type Scratch struct {
	h      bbcrypto.FixedKeyHash
	lab    [][2]uint64
	seed   []byte
	in     []Block
	out    []bool
	g      *Garbled
	labels *Labels
}

// resize returns b with length n, reallocated only when its capacity is
// short; its contents are stale.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// Garble is the package's Garble in the scratch's memory: the returned
// circuit and labels are valid until the scratch is next used.
func (s *Scratch) Garble(c *circuit.Circuit, fixedKey Block, rng io.Reader) (*Garbled, *Labels, error) {
	g, labels, _, err := s.garbleLabels(c, fixedKey, rng)
	return g, labels, err
}

// garbleLabels is Garble that also returns every wire's false label, in
// words (bbcrypto.Block.Words).
func (s *Scratch) garbleLabels(c *circuit.Circuit, fixedKey Block, rng io.Reader) (*Garbled, *Labels, [][2]uint64, error) {
	// R and every input label in one read: a Block read on its own escapes
	// through the io.Reader interface, one heap object per input wire.
	s.seed = resize(s.seed, (1+c.NInputs)*bbcrypto.BlockSize)
	if _, err := io.ReadFull(rng, s.seed); err != nil {
		return nil, nil, nil, fmt.Errorf("garble: reading R and input labels: %w", err)
	}
	s.h.Reset(&fixedKey)
	r := blockAt(s.seed, 0).Words()
	r[1] |= 1 // LSB(R)=1 so labels of a pair differ in color
	s.lab = resize(s.lab, c.NInputs+len(c.Gates))
	lab := s.lab
	for i := 0; i < c.NInputs; i++ {
		lab[i] = blockAt(s.seed, 1+i).Words()
	}

	if s.g == nil {
		s.g, s.labels = new(Garbled), new(Labels)
	}
	g := s.g
	g.FixedKey, g.Rows, g.Tables = fixedKey, 2, resize(g.Tables, 2*c.NumAND())
	garbleHalfGates(c, &s.h, r, lab, g.Tables)

	g.Decode = resize(g.Decode, len(c.Outputs))
	for i, ref := range c.Outputs {
		if ref.IsConst {
			g.Decode[i] = DecodeEntry{Const: true, Val: ref.Val}
			continue
		}
		g.Decode[i] = DecodeEntry{Val: label0(lab, r, ref)[1]&1 == 1}
	}
	labels := s.labels
	labels.L0, labels.R = resize(labels.L0, c.NInputs), bbcrypto.FromWords(r)
	for i := range labels.L0 {
		labels.L0[i] = bbcrypto.FromWords(lab[i])
	}
	return g, labels, lab, nil
}

// blockAt returns the i-th block of buf.
func blockAt(buf []byte, i int) *Block {
	return (*Block)(buf[i*bbcrypto.BlockSize:][:bbcrypto.BlockSize])
}

// label0 returns the words of the label that encodes "ref evaluates to
// false": the wire's false label, or its true label if ref is negated.
func label0(lab [][2]uint64, r [2]uint64, ref circuit.Ref) [2]uint64 {
	w := lab[ref.ID]
	if ref.Neg { // the circuit's own flag, public
		w[0] ^= r[0]
		w[1] ^= r[1]
	}
	return w
}

// garbleHalfGates garbles every gate of c into lab, whose input wires are
// set, and writes each AND gate's two ZRE15 half-gate ciphertexts — a
// generator half (the garbler knows pb) and an evaluator half (the
// evaluator knows its own color) — into tables in gate order. An AND gate's
// four hashes, each of its four input labels once, are one Hash1x4; the
// colors select through masks.
//
// The words are handled one at a time, never as [2]uint64 values: the
// compiler keeps such an array in memory and copies it 16 bytes at a time,
// and a 16-byte load of two 8-byte stores waits on store forwarding.
func garbleHalfGates(c *circuit.Circuit, h *bbcrypto.FixedKeyHash, r [2]uint64, lab [][2]uint64, tables []Block) {
	out := lab[c.NInputs:]
	rh, rl := r[0], r[1]
	t := 0
	var in, hs [4][2]uint64
	var tw [4]uint64
	for gi := range c.Gates {
		gate := &c.Gates[gi]
		// Half of F's AND gates have a negated input, in no pattern a
		// branch predictor learns, so negation is a mask.
		na, nb := negMask(gate.A), negMask(gate.B)
		a, b := &lab[gate.A.ID], &lab[gate.B.ID]
		ah, al := a[0]^(rh&na), a[1]^(rl&na)
		bh, bl := b[0]^(rh&nb), b[1]^(rl&nb)
		o := &out[gi]
		if gate.Op == circuit.XOR {
			// Free-XOR: C0 = A0 ⊕ B0, no table.
			o[0], o[1] = ah^bh, al^bl
			continue
		}
		in[0][0], in[0][1] = ah, al
		in[1][0], in[1][1] = ah^rh, al^rl
		in[2][0], in[2][1] = bh, bl
		in[3][0], in[3][1] = bh^rh, bl^rl
		jG := 2 * uint64(gi)
		tw[0], tw[1], tw[2], tw[3] = jG, jG, jG+1, jG+1
		h.Hash1x4(&hs, &in, &tw)
		// All ones where the false label's color pa (pb) is 1.
		ma, mb := -(al & 1), -(bl & 1)
		tGh, tGl := hs[0][0]^hs[1][0]^(rh&mb), hs[0][1]^hs[1][1]^(rl&mb)
		tEh, tEl := hs[2][0]^hs[3][0]^ah, hs[2][1]^hs[3][1]^al
		// C0 = wG0 ⊕ wE0, where wG0 = hA0 ⊕ pa·tG and wE0 = hB0 ⊕
		// pb·(hB0 ⊕ hB1).
		o[0] = hs[0][0] ^ (tGh & ma) ^ hs[2][0] ^ ((hs[2][0] ^ hs[3][0]) & mb)
		o[1] = hs[0][1] ^ (tGl & ma) ^ hs[2][1] ^ ((hs[2][1] ^ hs[3][1]) & mb)
		tab := (*[2]Block)(tables[t:])
		putWords(&tab[0], tGh, tGl)
		putWords(&tab[1], tEh, tEl)
		t += 2
	}
}

// negMask is all ones if ref is negated, else zero.
func negMask(ref circuit.Ref) uint64 {
	var m uint64
	if ref.Neg {
		m = ^uint64(0)
	}
	return m
}

// putWords stores the words hi, lo into b, as bbcrypto.FromWords would.
func putWords(b *Block, hi, lo uint64) {
	binary.BigEndian.PutUint64(b[:8], hi)
	binary.BigEndian.PutUint64(b[8:], lo)
}

// Eval evaluates the garbled circuit on one label per input wire and
// returns the decoded output bits. The evaluator learns nothing about the
// garbler's labels beyond the outputs. It is Scratch.Eval on a scratch of
// its own, so the result is the caller's.
func Eval(c *circuit.Circuit, g *Garbled, inputLabels []Block) ([]bool, error) {
	return new(Scratch).Eval(c, g, inputLabels)
}

// Inputs returns n input labels in the scratch's memory, for the caller to
// fill and hand to Eval; their contents are stale.
func (s *Scratch) Inputs(n int) []Block {
	s.in = resize(s.in, n)
	return s.in
}

// Eval is the package's Eval in the scratch's memory: the returned bits are
// valid until the scratch is next used. inputLabels may be Inputs' slice.
func (s *Scratch) Eval(c *circuit.Circuit, g *Garbled, inputLabels []Block) ([]bool, error) {
	lab, err := s.evalLabels(c, g, inputLabels)
	if err != nil {
		return nil, err
	}
	s.out = resize(s.out, len(c.Outputs))
	for i, ref := range c.Outputs {
		d := g.Decode[i]
		if d.Const {
			s.out[i] = d.Val
			continue
		}
		// The decode entry was computed from label0, which already folds
		// in the reference's negation, so no extra flip is needed.
		s.out[i] = (lab[ref.ID][1]&1 == 1) != d.Val
	}
	return s.out, nil
}

// evalLabels is Eval before decoding: the label of every wire, in words.
func (s *Scratch) evalLabels(c *circuit.Circuit, g *Garbled, inputLabels []Block) ([][2]uint64, error) {
	if len(inputLabels) != c.NInputs {
		return nil, fmt.Errorf("garble: got %d input labels, want %d", len(inputLabels), c.NInputs)
	}
	if len(g.Decode) != len(c.Outputs) {
		return nil, errors.New("garble: decode table does not match circuit outputs")
	}
	if g.Rows != 2 {
		return nil, fmt.Errorf("garble: unsupported row count %d", g.Rows)
	}
	if 2*c.NumAND() != len(g.Tables) {
		return nil, errors.New("garble: gate table size mismatch")
	}
	s.h.Reset(&g.FixedKey)
	s.lab = resize(s.lab, c.NInputs+len(c.Gates))
	for i := range inputLabels {
		s.lab[i] = inputLabels[i].Words()
	}
	evalHalfGates(c, &s.h, g.Tables, s.lab)
	return s.lab, nil
}

// evalHalfGates evaluates every gate of c into lab, whose input wires are
// set, from half-gate tables. An AND gate costs two hashes, so one Hash1x4
// carries two gates: the AND gate at hand and the next AND gate, whenever
// that gate's inputs already exist (on F, 72 % of the ANDs go in pairs).
// The pairing is found greedily as the gates go by, with no stored
// schedule.
func evalHalfGates(c *circuit.Circuit, h *bbcrypto.FixedKeyHash, tables []Block, lab [][2]uint64) {
	gates := c.Gates
	out := lab[c.NInputs:]
	t := 0     // the next AND gate's first table row
	done := -1 // an AND gate already evaluated with the one before it
	var in, hs [4][2]uint64
	var tw [4]uint64
	for gi := range gates {
		gate := &gates[gi]
		a, b := &lab[gate.A.ID], &lab[gate.B.ID]
		if gate.Op == circuit.XOR {
			o := &out[gi]
			o[0], o[1] = a[0]^b[0], a[1]^b[1]
			continue
		}
		if gi == done {
			continue
		}
		j := gi + 1
		for j < len(gates) && gates[j].Op == circuit.XOR {
			j++
		}
		// Wires below c.NInputs+gi exist; gi's own output does not yet.
		exist := int32(c.NInputs + gi)
		pair := j < len(gates) && gates[j].A.ID < exist && gates[j].B.ID < exist
		in[0][0], in[0][1] = a[0], a[1]
		in[1][0], in[1][1] = b[0], b[1]
		tw[0], tw[1] = 2*uint64(gi), 2*uint64(gi)+1
		n, dst := 1, [2]int{gi, j}
		if pair {
			n = 2
			a, b := &lab[gates[j].A.ID], &lab[gates[j].B.ID]
			in[2][0], in[2][1] = a[0], a[1]
			in[3][0], in[3][1] = b[0], b[1]
			tw[2], tw[3] = 2*uint64(j), 2*uint64(j)+1
			done = j
		} // else lanes 2 and 3 rehash stale inputs, and nothing reads them
		h.Hash1x4(&hs, &in, &tw)
		// Each gate's label is H(a) ⊕ ca·tG ⊕ H(b) ⊕ cb·(tE ⊕ a), where ca
		// and cb are its input labels' colors, applied as masks.
		for k := 0; k < n; k++ {
			a, b, ha, hb := &in[2*k], &in[2*k+1], &hs[2*k], &hs[2*k+1]
			tab := (*[2]Block)(tables[t:])
			ma, mb := -(a[1] & 1), -(b[1] & 1)
			tGh, tGl := binary.BigEndian.Uint64(tab[0][:8]), binary.BigEndian.Uint64(tab[0][8:])
			tEh, tEl := binary.BigEndian.Uint64(tab[1][:8]), binary.BigEndian.Uint64(tab[1][8:])
			o := &out[dst[k]]
			o[0] = ha[0] ^ hb[0] ^ (tGh & ma) ^ ((tEh ^ a[0]) & mb)
			o[1] = ha[1] ^ hb[1] ^ (tGl & ma) ^ ((tEl ^ a[1]) & mb)
			t += 2
		}
	}
}

// Equal reports whether two garbled circuits are bit-identical — what the
// middlebox's §3.3 consistency check establishes by comparing digests of
// their encodings.
func Equal(a, b *Garbled) bool {
	// The fixed key and garbled tables are the public transcript both
	// endpoints send to the middlebox; comparison timing reveals nothing.
	//lint:ignore ct-compare fixed key and row counts are public transcript values
	if a.FixedKey != b.FixedKey || a.Rows != b.Rows ||
		len(a.Tables) != len(b.Tables) || len(a.Decode) != len(b.Decode) {
		return false
	}
	for i := range a.Tables {
		//lint:ignore ct-compare garbled tables are public transcript values
		if a.Tables[i] != b.Tables[i] {
			return false
		}
	}
	for i := range a.Decode {
		if a.Decode[i] != b.Decode[i] {
			return false
		}
	}
	return true
}

// Size returns the wire size of the garbled circuit in bytes — the
// per-rule transmission cost the paper reports (599 KB per circuit for
// their 6800-gate AES).
func (g *Garbled) Size() int {
	return bbcrypto.BlockSize + 1 + len(g.Tables)*bbcrypto.BlockSize + 8 + len(g.Decode)
}

// Stats sizes the garbled material for observability (DESIGN.md §8): the
// AND-gate count implied by the tables, the transmitted rows, and the
// serialized wire bytes.
type Stats struct {
	// Gates is the number of AND gates the tables cover.
	Gates int
	// TableRows is the total number of transmitted ciphertext rows.
	TableRows int
	// WireBytes is the serialized transmission cost (Size).
	WireBytes int
}

// Stats reports the sizes of this garbled circuit.
func (g *Garbled) Stats() Stats {
	gates := 0
	if g.Rows > 0 {
		gates = len(g.Tables) / g.Rows
	}
	return Stats{Gates: gates, TableRows: len(g.Tables), WireBytes: g.Size()}
}

// Marshal serializes the garbled circuit for transmission.
func (g *Garbled) Marshal() []byte {
	return g.AppendMarshal(make([]byte, 0, g.Size()))
}

// AppendMarshal appends the serialized garbled circuit, Size() bytes, to dst
// — for callers that frame it inside a larger message they reuse.
func (g *Garbled) AppendMarshal(dst []byte) []byte {
	dst = append(dst, g.FixedKey[:]...)
	dst = append(dst, byte(g.Rows))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(g.Tables)))
	// One grow, then a 16-byte move per row rather than an append (and a
	// memmove call) per row.
	n := len(dst)
	dst = slices.Grow(dst, len(g.Tables)*bbcrypto.BlockSize)[:n+len(g.Tables)*bbcrypto.BlockSize]
	for i := range g.Tables {
		*(*Block)(dst[n+i*bbcrypto.BlockSize:]) = g.Tables[i]
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(g.Decode)))
	for _, d := range g.Decode {
		var b byte
		if d.Const {
			b |= 2
		}
		if d.Val {
			b |= 1
		}
		dst = append(dst, b)
	}
	return dst
}

// Unmarshal parses a serialized garbled circuit. It accepts exactly what
// Marshal writes: bytes after the decode table, or a decode entry with a bit
// Marshal never sets, are errors, so two different blobs never parse to the
// same circuit.
func Unmarshal(data []byte) (*Garbled, error) {
	g := &Garbled{}
	if len(data) < bbcrypto.BlockSize+1+4 {
		return nil, errors.New("garble: short buffer")
	}
	copy(g.FixedKey[:], data)
	data = data[bbcrypto.BlockSize:]
	g.Rows = int(data[0])
	data = data[1:]
	if g.Rows != 2 {
		return nil, fmt.Errorf("garble: bad row count %d", g.Rows)
	}
	nTables := binary.BigEndian.Uint32(data)
	data = data[4:]
	need := int(nTables) * bbcrypto.BlockSize
	if int(nTables) > len(data) || len(data) < need+4 {
		return nil, errors.New("garble: truncated tables")
	}
	g.Tables = make([]Block, nTables)
	for i := range g.Tables {
		g.Tables[i] = Block(data[i*bbcrypto.BlockSize:])
	}
	data = data[need:]
	nDecode := binary.BigEndian.Uint32(data)
	data = data[4:]
	if int(nDecode) > len(data) {
		return nil, errors.New("garble: truncated decode table")
	}
	if int(nDecode) < len(data) {
		return nil, fmt.Errorf("garble: %d trailing bytes after the decode table", len(data)-int(nDecode))
	}
	g.Decode = make([]DecodeEntry, nDecode)
	for i := range g.Decode {
		if data[i]&^3 != 0 {
			return nil, fmt.Errorf("garble: decode entry %d has unknown bits %#x", i, data[i])
		}
		g.Decode[i] = DecodeEntry{Const: data[i]&2 != 0, Val: data[i]&1 != 0}
	}
	return g, nil
}
