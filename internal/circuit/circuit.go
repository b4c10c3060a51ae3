// Package circuit provides a boolean circuit builder and evaluator, used to
// express the function that obfuscated rule encryption garbles (§3.3 of the
// paper): AES-128 encryption of a rule keyword under the session key k,
// gated on an RG authorization check.
//
// Circuits contain only two gate kinds — XOR (free under the free-XOR
// garbling optimization) and AND (costing one garbled table) — with NOT
// folded into wire references and constants propagated at build time. The
// builder hash-conses gates, so structurally repeated subcircuits (such as
// the S-box multiplexer trees) are shared automatically.
package circuit

import "fmt"

// Op is a gate operation.
type Op uint8

const (
	// XOR gates are free to garble (free-XOR).
	XOR Op = iota
	// AND gates cost one garbled table each.
	AND
)

// Ref is a reference to a wire value: a constant, or a (possibly negated)
// wire. Wires 0..NInputs-1 are circuit inputs; wire NInputs+i is the output
// of gate i.
type Ref struct {
	// IsConst marks a constant reference; Val holds its value.
	IsConst bool
	Val     bool
	// ID is the wire index for non-constant refs.
	ID int32
	// Neg negates the wire's value.
	Neg bool
}

// Const returns a constant reference.
func Const(v bool) Ref { return Ref{IsConst: true, Val: v} }

// Gate is one circuit gate. Its output wire ID is NInputs + its index.
// Input references are always non-constant (the builder folds constants).
type Gate struct {
	Op   Op
	A, B Ref
}

// Circuit is an immutable built circuit, made by Builder.Build.
type Circuit struct {
	// NInputs is the number of input wires.
	NInputs int
	// Gates are in topological order.
	Gates []Gate
	// Outputs reference the circuit's output values.
	Outputs []Ref

	// nAND is NumAND, counted once by Build: the garbler, the evaluator
	// and the middlebox each ask once per circuit, and F has 62 239 gates.
	nAND int
}

// NumAND returns the number of AND gates — the garbling cost metric.
func (c *Circuit) NumAND() int { return c.nAND }

// String summarizes the circuit.
func (c *Circuit) String() string {
	return fmt.Sprintf("circuit{in=%d gates=%d and=%d out=%d}",
		c.NInputs, len(c.Gates), c.NumAND(), len(c.Outputs))
}

// Evaluate computes the circuit's outputs on plaintext inputs, for testing
// and as the specification the garbled evaluation must agree with.
func (c *Circuit) Evaluate(inputs []bool) []bool {
	if len(inputs) != c.NInputs {
		panic(fmt.Sprintf("circuit: got %d inputs, want %d", len(inputs), c.NInputs))
	}
	values := make([]bool, c.NInputs+len(c.Gates))
	copy(values, inputs)
	resolve := func(r Ref) bool {
		if r.IsConst {
			return r.Val
		}
		return values[r.ID] != r.Neg
	}
	for i, g := range c.Gates {
		a, b := resolve(g.A), resolve(g.B)
		switch g.Op {
		case XOR:
			values[c.NInputs+i] = a != b
		case AND:
			values[c.NInputs+i] = a && b
		}
	}
	out := make([]bool, len(c.Outputs))
	for i, r := range c.Outputs {
		out[i] = resolve(r)
	}
	return out
}

// mustWidth enforces a circuit-construction width invariant; a violation is
// a programming error, never reachable from wire data.
func mustWidth(what string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("circuit: %s is %d bits wide, want %d", what, got, want))
	}
}

// evaluateLanes evaluates 64 independent instances of the circuit at once:
// bit j of inputs[w] is input wire w of instance j, and likewise for the
// returned output words. Gates act on whole words and a negated reference is
// an XOR with all-ones, so neither a branch nor a memory index depends on a
// wire value — this, not Evaluate, is the evaluator for secret inputs.
func (c *Circuit) evaluateLanes(inputs []uint64) []uint64 {
	mustWidth("lane input", len(inputs), c.NInputs)
	values := make([]uint64, c.NInputs+len(c.Gates))
	copy(values, inputs)
	// The branches are on the circuit's own constant and negation flags,
	// which are public.
	resolve := func(r Ref) uint64 {
		v := uint64(0)
		if !r.IsConst {
			v = values[r.ID]
		}
		if r.Neg || (r.IsConst && r.Val) {
			v = ^v
		}
		return v
	}
	for i, g := range c.Gates {
		a, b := resolve(g.A), resolve(g.B)
		if g.Op == XOR {
			values[c.NInputs+i] = a ^ b
		} else {
			values[c.NInputs+i] = a & b
		}
	}
	out := make([]uint64, len(c.Outputs))
	for i, r := range c.Outputs {
		out[i] = resolve(r)
	}
	return out
}

// Builder incrementally constructs a Circuit.
type Builder struct {
	nInputs int
	gates   []Gate
	cache   map[gateKey]Ref
}

type gateKey struct {
	op   Op
	aID  int32
	aNeg bool
	bID  int32
	bNeg bool
}

// NewBuilder creates a builder with the given number of input wires.
func NewBuilder(nInputs int) *Builder {
	return &Builder{nInputs: nInputs, cache: make(map[gateKey]Ref)}
}

// Input returns a reference to input wire i.
func (b *Builder) Input(i int) Ref {
	if i < 0 || i >= b.nInputs {
		panic(fmt.Sprintf("circuit: input %d out of range [0,%d)", i, b.nInputs))
	}
	return Ref{ID: int32(i)}
}

// Inputs returns references to a contiguous range of input wires.
func (b *Builder) Inputs(start, n int) []Ref {
	out := make([]Ref, n)
	for i := range out {
		out[i] = b.Input(start + i)
	}
	return out
}

// NOT returns the negation of a (free: no gate is emitted).
func (b *Builder) NOT(a Ref) Ref {
	if a.IsConst {
		return Const(!a.Val)
	}
	a.Neg = !a.Neg
	return a
}

// XOR returns a XOR b, folding constants and duplicate operands.
func (b *Builder) XOR(x, y Ref) Ref {
	switch {
	case x.IsConst && y.IsConst:
		return Const(x.Val != y.Val)
	case x.IsConst:
		if x.Val {
			return b.NOT(y)
		}
		return y
	case y.IsConst:
		if y.Val {
			return b.NOT(x)
		}
		return x
	}
	if x.ID == y.ID {
		return Const(x.Neg != y.Neg)
	}
	// Normalize: negations commute out of XOR (¬a⊕b = ¬(a⊕b)); emit the
	// gate on the positive wires and track the result polarity.
	neg := x.Neg != y.Neg
	x.Neg, y.Neg = false, false
	if x.ID > y.ID {
		x, y = y, x
	}
	out := b.emit(Gate{Op: XOR, A: x, B: y})
	out.Neg = neg
	return out
}

// AND returns x AND y, folding constants and duplicates.
func (b *Builder) AND(x, y Ref) Ref {
	switch {
	case x.IsConst && y.IsConst:
		return Const(x.Val && y.Val)
	case x.IsConst:
		if x.Val {
			return y
		}
		return Const(false)
	case y.IsConst:
		if y.Val {
			return x
		}
		return Const(false)
	}
	if x.ID == y.ID {
		if x.Neg == y.Neg {
			return x
		}
		return Const(false)
	}
	if x.ID > y.ID {
		x, y = y, x
	}
	return b.emit(Gate{Op: AND, A: x, B: y})
}

// OR returns x OR y via De Morgan (one AND gate).
func (b *Builder) OR(x, y Ref) Ref {
	return b.NOT(b.AND(b.NOT(x), b.NOT(y)))
}

// MUX returns s ? hi : lo using a single AND gate:
// lo XOR (s AND (hi XOR lo)).
func (b *Builder) MUX(s, hi, lo Ref) Ref {
	return b.XOR(lo, b.AND(s, b.XOR(hi, lo)))
}

// emit appends a gate, consulting the hash-consing cache first.
func (b *Builder) emit(g Gate) Ref {
	key := gateKey{op: g.Op, aID: g.A.ID, aNeg: g.A.Neg, bID: g.B.ID, bNeg: g.B.Neg}
	if r, ok := b.cache[key]; ok {
		return r
	}
	b.gates = append(b.gates, g)
	r := Ref{ID: int32(b.nInputs + len(b.gates) - 1)}
	b.cache[key] = r
	return r
}

// Build finalizes the circuit with the given outputs.
func (b *Builder) Build(outputs []Ref) *Circuit {
	c := &Circuit{NInputs: b.nInputs, Gates: b.gates, Outputs: outputs}
	for _, g := range c.Gates {
		if g.Op == AND {
			c.nAND++
		}
	}
	return c
}

// MuxTree selects table[index] where index is formed from the selector bits
// (sel[0] is the least significant). The table length must be 1<<len(sel).
// Constant folding collapses the constant leaves, so an 8-bit tree (an
// S-box output bit) costs far fewer than 255 AND gates.
func (b *Builder) MuxTree(sel []Ref, table []bool) Ref {
	if len(table) != 1<<len(sel) {
		panic("circuit: table size must be 2^len(sel)")
	}
	if len(sel) == 0 {
		return Const(table[0])
	}
	top := sel[len(sel)-1]
	half := len(table) / 2
	lo := b.MuxTree(sel[:len(sel)-1], table[:half])
	hi := b.MuxTree(sel[:len(sel)-1], table[half:])
	return b.MUX(top, hi, lo)
}

// EqualConst returns a reference that is true iff the wires equal the given
// constant bits (used for table lookups and comparisons).
func (b *Builder) EqualConst(wires []Ref, bits []bool) Ref {
	acc := Const(true)
	for i, w := range wires {
		bit := w
		if !bits[i] {
			bit = b.NOT(w)
		}
		acc = b.AND(acc, bit)
	}
	return acc
}

// Equal returns a reference that is true iff xs and ys are bitwise equal.
func (b *Builder) Equal(xs, ys []Ref) Ref {
	if len(xs) != len(ys) {
		panic("circuit: Equal on different widths")
	}
	acc := Const(true)
	for i := range xs {
		acc = b.AND(acc, b.NOT(b.XOR(xs[i], ys[i])))
	}
	return acc
}

// XORWords XORs two equal-width bit vectors.
func (b *Builder) XORWords(xs, ys []Ref) []Ref {
	if len(xs) != len(ys) {
		panic("circuit: XORWords on different widths")
	}
	out := make([]Ref, len(xs))
	for i := range xs {
		out[i] = b.XOR(xs[i], ys[i])
	}
	return out
}
