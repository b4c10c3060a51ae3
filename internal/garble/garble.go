// Package garble implements Yao's garbled circuits in the JustGarble style
// the paper's prototype uses (§3.3, §6): free-XOR (Kolesnikov–Schneider),
// point-and-permute, a fixed-key AES hash so that garbling and evaluation
// cost a small constant number of AES calls per AND gate, and
// Zahur–Rosulek–Evans half gates: two ciphertexts per AND gate, four hashes
// to garble one and two to evaluate it. GRR3 row reduction and the classic
// four-row table remain behind GarbleWith for the DESIGN.md ablation.
//
// BlindBox requires garbling to be *deterministic given a shared seed*:
// both endpoints garble the same function with randomness derived from
// krand and the middlebox checks the two garbled circuits are identical
// (§3.3 rule preparation step 2.2), which protects against one malicious
// endpoint garbling incorrectly.
package garble

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/bbcrypto"
	"repro/internal/circuit"
)

// Block is re-exported for convenience.
type Block = bbcrypto.Block

// Options selects the AND-gate table construction. The zero value is half
// gates, which is what Garble and therefore every connection uses; the other
// two exist for the DESIGN.md ablation (experiments.AblationGarbleRows). The
// evaluator reads the construction off Garbled.Rows.
type Options struct {
	// GRR3 garbles with garbled row reduction: one two-input hash per row,
	// the first row implicit, three transmitted.
	GRR3 bool
	// FullRows garbles the classic point-and-permute table: all four rows
	// transmitted, output labels drawn from rng.
	FullRows bool
}

// Garbled is the material the evaluator (the middlebox) receives: the
// AND-gate tables plus output-decoding information. It reveals nothing
// about wire values beyond what evaluation on one input exposes.
type Garbled struct {
	// FixedKey keys the garbling hash; it is public.
	FixedKey Block
	// Rows is the number of transmitted rows per AND gate: 2 (half
	// gates), 3 (GRR3) or 4 (classic point-and-permute).
	Rows int
	// Tables holds Rows blocks per AND gate, flattened in gate order: the
	// generator and evaluator ciphertexts of a half gate; with GRR3, whose
	// row for input colors (0,0) is implicit (all zeros), the rows for
	// colors (0,1), (1,0), (1,1).
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
func Garble(c *circuit.Circuit, fixedKey Block, rng io.Reader) (*Garbled, *Labels, error) {
	return GarbleWith(c, fixedKey, rng, Options{})
}

// GarbleWith garbles with an explicit table construction.
func GarbleWith(c *circuit.Circuit, fixedKey Block, rng io.Reader, opts Options) (*Garbled, *Labels, error) {
	rows := 2
	switch {
	case opts.FullRows && opts.GRR3:
		return nil, nil, errors.New("garble: FullRows and GRR3 are mutually exclusive")
	case opts.FullRows:
		rows = 4
	case opts.GRR3:
		rows = 3
	}
	h := bbcrypto.NewFixedKeyHash(fixedKey)

	// R and every input label in one read: a Block read on its own escapes
	// through the io.Reader interface, one heap object per input wire.
	seed := make([]byte, (1+c.NInputs)*bbcrypto.BlockSize)
	if _, err := io.ReadFull(rng, seed); err != nil {
		return nil, nil, fmt.Errorf("garble: reading R and input labels: %w", err)
	}
	var r Block
	copy(r[:], seed)
	r[bbcrypto.BlockSize-1] |= 1 // LSB(R)=1 so labels of a pair differ in color
	l0 := make([]Block, c.NInputs+len(c.Gates))
	for i := 0; i < c.NInputs; i++ {
		copy(l0[i][:], seed[(1+i)*bbcrypto.BlockSize:])
	}

	// refLabel0 returns the label that encodes "ref evaluates to false".
	refLabel0 := func(ref circuit.Ref) Block {
		lbl := l0[ref.ID]
		if ref.Neg {
			lbl = lbl.XOR(r)
		}
		return lbl
	}

	g := &Garbled{FixedKey: fixedKey, Rows: rows, Tables: make([]Block, 0, rows*c.NumAND())}
	for gi, gate := range c.Gates {
		out := c.NInputs + gi
		a0 := refLabel0(gate.A)
		b0 := refLabel0(gate.B)
		switch {
		case gate.Op == circuit.XOR:
			// Free-XOR: C0 = A0 ⊕ B0, no table.
			l0[out] = a0.XOR(b0)
		case rows == 2:
			var tG, tE Block
			l0[out], tG, tE = halfGate(h, r, a0, b0, uint64(gi))
			g.Tables = append(g.Tables, tG, tE)
		default:
			var c0 Block
			if opts.FullRows {
				// Classic P&P: fresh random output label.
				if _, err := io.ReadFull(rng, c0[:]); err != nil {
					return nil, nil, fmt.Errorf("garble: reading gate label: %w", err)
				}
			}
			l0[out], g.Tables = rowGate(h, r, a0, b0, c0, uint64(gi), opts.FullRows, g.Tables)
		}
	}

	for _, ref := range c.Outputs {
		if ref.IsConst {
			g.Decode = append(g.Decode, DecodeEntry{Const: true, Val: ref.Val})
			continue
		}
		g.Decode = append(g.Decode, DecodeEntry{Val: refLabel0(ref).LSB() == 1})
	}
	// A copy, so that the labels do not pin every internal wire's label.
	return g, &Labels{L0: append([]Block(nil), l0[:c.NInputs]...), R: r}, nil
}

// halfGate garbles one AND gate as ZRE15's two half gates — a generator
// half (the garbler knows pb) and an evaluator half (the evaluator knows its
// own color) — and returns the output wire's false label and the two
// ciphertexts. Four hashes, each of the four input labels once, independent
// of each other and so run four abreast.
func halfGate(h *bbcrypto.FixedKeyHash, r, a0, b0 Block, gi uint64) (c0, tG, tE Block) {
	pa, pb := a0.LSB(), b0.LSB()
	jG, jE := 2*gi, 2*gi+1
	hs := [4]Block{a0, a0.XOR(r), b0, b0.XOR(r)}
	h.Hash1x4(&hs, &hs, &[4]uint64{jG, jG, jE, jE})
	hA0, hA1, hB0, hB1 := hs[0], hs[1], hs[2], hs[3]

	tG = hA0.XOR(hA1)
	if pb == 1 {
		tG = tG.XOR(r)
	}
	wG0 := hA0
	if pa == 1 {
		wG0 = wG0.XOR(tG)
	}

	tE = hB0.XOR(hB1).XOR(a0)
	wE0 := hB0
	if pb == 1 {
		wE0 = hB1 // hB0 ⊕ (tE ⊕ a0)
	}
	return wG0.XOR(wE0), tG, tE
}

// rowGate garbles one AND gate as a point-and-permute table of two-input
// hashes, appending its rows to tables: all four around the given output
// label c0 (fullRows), or GRR3's three, the output label chosen so that the
// colors-(0,0) row is zero.
func rowGate(h *bbcrypto.FixedKeyHash, r, a0, b0, c0 Block, tweak uint64, fullRows bool, tables []Block) (Block, []Block) {
	pa, pb := a0.LSB(), b0.LSB()
	// labelFor returns the input label carrying semantic value v.
	labelFor := func(base Block, v int) Block {
		if v == 1 {
			return base.XOR(r)
		}
		return base
	}
	if !fullRows {
		// A label with color 0 on wire A carries value pa (va = ca ⊕ pa).
		c0 = h.Hash(labelFor(a0, pa), labelFor(b0, pb), tweak)
		if pa&pb == 1 {
			c0 = c0.XOR(r)
		}
	}
	for ca := 0; ca < 2; ca++ {
		for cb := 0; cb < 2; cb++ {
			if !fullRows && ca == 0 && cb == 0 {
				continue // implicit zero row
			}
			va := ca ^ pa
			vb := cb ^ pb
			cLbl := c0
			if va&vb == 1 {
				cLbl = cLbl.XOR(r)
			}
			tables = append(tables, h.Hash(labelFor(a0, va), labelFor(b0, vb), tweak).XOR(cLbl))
		}
	}
	return c0, tables
}

// Eval evaluates the garbled circuit on one label per input wire and
// returns the decoded output bits. The evaluator learns nothing about the
// garbler's labels beyond the outputs.
func Eval(c *circuit.Circuit, g *Garbled, inputLabels []Block) ([]bool, error) {
	if len(inputLabels) != c.NInputs {
		return nil, fmt.Errorf("garble: got %d input labels, want %d", len(inputLabels), c.NInputs)
	}
	if len(g.Decode) != len(c.Outputs) {
		return nil, errors.New("garble: decode table does not match circuit outputs")
	}
	if g.Rows < 2 || g.Rows > 4 {
		return nil, fmt.Errorf("garble: unsupported row count %d", g.Rows)
	}
	if c.NumAND()*g.Rows != len(g.Tables) {
		return nil, errors.New("garble: gate table size mismatch")
	}
	h := bbcrypto.NewFixedKeyHash(g.FixedKey)
	labels := make([]Block, c.NInputs+len(c.Gates))
	copy(labels, inputLabels)

	andIdx := 0
	for gi, gate := range c.Gates {
		a := labels[gate.A.ID]
		b := labels[gate.B.ID]
		out := c.NInputs + gi
		switch gate.Op {
		case circuit.XOR:
			labels[out] = a.XOR(b)
		case circuit.AND:
			switch g.Rows {
			case 2:
				// Half-gates evaluation: two single-input hashes.
				tG := g.Tables[andIdx*2]
				tE := g.Tables[andIdx*2+1]
				wg := h.Hash1(a, uint64(2*gi))
				if a.LSB() == 1 {
					wg = wg.XOR(tG)
				}
				we := h.Hash1(b, uint64(2*gi+1))
				if b.LSB() == 1 {
					we = we.XOR(tE.XOR(a))
				}
				labels[out] = wg.XOR(we)
			case 3:
				hv := h.Hash(a, b, uint64(gi))
				rowIdx := a.LSB()*2 + b.LSB()
				if rowIdx == 0 {
					// GRR3 implicit zero row: label = H(a, b, tweak).
					labels[out] = hv
				} else {
					labels[out] = g.Tables[andIdx*3+rowIdx-1].XOR(hv)
				}
			default:
				hv := h.Hash(a, b, uint64(gi))
				labels[out] = g.Tables[andIdx*4+a.LSB()*2+b.LSB()].XOR(hv)
			}
			andIdx++
		}
	}

	out := make([]bool, len(c.Outputs))
	for i, ref := range c.Outputs {
		d := g.Decode[i]
		if d.Const {
			out[i] = d.Val
			continue
		}
		// The decode entry was computed from refLabel0, which already
		// folds in the reference's negation, so no extra flip is needed.
		bit := labels[ref.ID].LSB() == 1
		out[i] = bit != d.Val
	}
	return out, nil
}

// Equal reports whether two garbled circuits are bit-identical — the
// middlebox's §3.3 consistency check between the two endpoints' circuits.
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
	for i := range g.Tables {
		dst = append(dst, g.Tables[i][:]...)
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

// Unmarshal parses a serialized garbled circuit.
func Unmarshal(data []byte) (*Garbled, error) {
	g := &Garbled{}
	if len(data) < bbcrypto.BlockSize+1+4 {
		return nil, errors.New("garble: short buffer")
	}
	copy(g.FixedKey[:], data)
	data = data[bbcrypto.BlockSize:]
	g.Rows = int(data[0])
	data = data[1:]
	if g.Rows < 2 || g.Rows > 4 {
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
		copy(g.Tables[i][:], data)
		data = data[bbcrypto.BlockSize:]
	}
	nDecode := binary.BigEndian.Uint32(data)
	data = data[4:]
	if int(nDecode) > len(data) {
		return nil, errors.New("garble: truncated decode table")
	}
	g.Decode = make([]DecodeEntry, nDecode)
	for i := range g.Decode {
		g.Decode[i] = DecodeEntry{Const: data[i]&2 != 0, Val: data[i]&1 != 0}
	}
	return g, nil
}
