package garble

import (
	"bytes"
	"crypto/aes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/circuit"
)

// evalWith garbles c with the given seed and evaluates it on the given
// plaintext input bits, returning the decoded outputs.
func evalWith(t *testing.T, c *circuit.Circuit, seed bbcrypto.Block, inputs []bool) []bool {
	t.Helper()
	g, labels, err := Garble(c, bbcrypto.Block{0xAA}, bbcrypto.NewPRG(seed))
	if err != nil {
		t.Fatal(err)
	}
	inLabels := make([]Block, c.NInputs)
	for i, bit := range inputs {
		inLabels[i] = labels.For(i, bit)
	}
	out, err := Eval(c, g, inLabels)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// smallCircuit builds a circuit exercising every gate kind, negated inputs
// and all three output-reference forms (gate, negated, constant).
func smallCircuit() *circuit.Circuit {
	b := circuit.NewBuilder(3)
	x, y, z := b.Input(0), b.Input(1), b.Input(2)
	and := b.AND(x, y)
	mux := b.MUX(z, b.NOT(x), y)
	or := b.OR(and, b.NOT(z))
	return b.Build([]circuit.Ref{
		and, b.NOT(and), mux, or, b.XOR(x, b.NOT(y)),
		circuit.Const(true), circuit.Const(false), x,
	})
}

func TestGarbledEvalMatchesPlainEvalExhaustive(t *testing.T) {
	c := smallCircuit()
	for v := 0; v < 8; v++ {
		in := []bool{v&1 != 0, v&2 != 0, v&4 != 0}
		want := c.Evaluate(in)
		got := evalWith(t, c, bbcrypto.Block{byte(v)}, in)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("input %v output %d: garbled=%v plain=%v", in, i, got[i], want[i])
			}
		}
	}
}

func TestDeterministicGarbling(t *testing.T) {
	// Same circuit + same seed => bit-identical garbled circuits. This is
	// what lets the middlebox verify the two endpoints agree (§3.3).
	c := smallCircuit()
	seed := bbcrypto.Block{7}
	g1, l1, err := Garble(c, bbcrypto.Block{0xAA}, bbcrypto.NewPRG(seed))
	if err != nil {
		t.Fatal(err)
	}
	g2, l2, err := Garble(c, bbcrypto.Block{0xAA}, bbcrypto.NewPRG(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g1, g2) {
		t.Fatal("same seed produced different garbled circuits")
	}
	if l1.R != l2.R || l1.L0[0] != l2.L0[0] {
		t.Fatal("same seed produced different labels")
	}
	g3, _, err := Garble(c, bbcrypto.Block{0xAA}, bbcrypto.NewPRG(bbcrypto.Block{8}))
	if err != nil {
		t.Fatal(err)
	}
	if Equal(g1, g3) {
		t.Fatal("different seeds produced equal garbled circuits")
	}
}

// TestGarbledBytesArePinned: the middlebox compares circuits garbled on
// different machines bit for bit, so the bytes may depend neither on the AES
// kernel behind the hash (this test also runs under -tags purego) nor on how
// Block arithmetic is carried out.
func TestGarbledBytesArePinned(t *testing.T) {
	g, labels, err := Garble(smallCircuit(), bbcrypto.Block{0xAA}, bbcrypto.NewPRG(bbcrypto.Block{7}))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(append(g.Marshal(), labels.R[:]...))
	const want = "c7b93d1e9e9c04799541af592dd00255ba1b9ca9215ed8a74235a34b8dbc1bbd"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("garbled bytes hash to %s, want %s", got, want)
	}
}

func TestLabelPairsDifferByR(t *testing.T) {
	c := smallCircuit()
	_, labels, err := Garble(c, bbcrypto.Block{0xAA}, bbcrypto.NewPRG(bbcrypto.Block{1}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.NInputs; i++ {
		l0, l1 := labels.Pair(i)
		if l0.XOR(l1) != labels.R {
			t.Fatal("label pair does not differ by R")
		}
		if l0.LSB() == l1.LSB() {
			t.Fatal("label pair has equal colors; point-and-permute broken")
		}
	}
}

func TestGarbledAESMatchesStdlib(t *testing.T) {
	// The real workload: evaluate the garbled AES-128 circuit and compare
	// with crypto/aes.
	c := circuit.BuildAES128()
	key := make([]byte, 16)
	pt := make([]byte, 16)
	rand.Read(key)
	rand.Read(pt)

	in := append(circuit.BytesToBits(key), circuit.BytesToBits(pt)...)
	got := circuit.BitsToBytes(evalWith(t, c, bbcrypto.Block{42}, in))

	blk, _ := aes.NewCipher(key)
	want := make([]byte, 16)
	blk.Encrypt(want, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("garbled AES = %x, want %x", got, want)
	}
}

// TestGarbledRuleEncryptAuthorization garbles the real F with half gates and
// checks garbled evaluation against Circuit.Evaluate and crypto/aes, under
// the right tag and under a wrong one.
func TestGarbledRuleEncryptAuthorization(t *testing.T) {
	c := circuit.BuildRuleEncrypt()
	var key, krg [16]byte
	x := make([]byte, 16)
	rand.Read(key[:])
	rand.Read(krg[:])
	rand.Read(x)
	aesOf := func(k, m []byte) []byte {
		blk, _ := aes.NewCipher(k)
		out := make([]byte, 16)
		blk.Encrypt(out, m)
		return out
	}
	rk, rkRG := circuit.ExpandKey128(key), circuit.ExpandKey128(krg)

	in := make([]bool, circuit.RuleEncryptNInputs)
	copy(in[circuit.RuleEncryptXOff:], circuit.BytesToBits(x))
	copy(in[circuit.RuleEncryptTagOff:], circuit.BytesToBits(aesOf(krg[:], x)))
	copy(in[circuit.RuleEncryptKOff:], circuit.BytesToBits(rk[:]))
	copy(in[circuit.RuleEncryptKRGOff:], circuit.BytesToBits(rkRG[:]))
	got := circuit.BitsToBytes(evalWith(t, c, bbcrypto.Block{9}, in))
	if !bytes.Equal(got, aesOf(key[:], x)) {
		t.Fatalf("authorized: got %x want %x", got, aesOf(key[:], x))
	}
	if want := circuit.BitsToBytes(c.Evaluate(in)); !bytes.Equal(got, want) {
		t.Fatalf("authorized: garbled %x, plain evaluation %x", got, want)
	}

	in[circuit.RuleEncryptTagOff+3] = !in[circuit.RuleEncryptTagOff+3]
	got = circuit.BitsToBytes(evalWith(t, c, bbcrypto.Block{9}, in))
	if !bytes.Equal(got, make([]byte, 16)) {
		t.Fatalf("unauthorized: got %x want zeros", got)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	c := smallCircuit()
	g, _, err := Garble(c, bbcrypto.Block{0xAA}, bbcrypto.NewPRG(bbcrypto.Block{3}))
	if err != nil {
		t.Fatal(err)
	}
	data := g.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, got) {
		t.Fatal("marshal round trip lost data")
	}
	if len(data) > g.Size()+16 {
		t.Fatalf("marshal size %d far exceeds Size() %d", len(data), g.Size())
	}
	// Truncations must error, not panic.
	for _, n := range []int{0, 10, len(data) / 2, len(data) - 1} {
		if _, err := Unmarshal(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes did not error", n)
		}
	}
	// So must anything Marshal would not have written: a trailing byte, or
	// a decode entry with a bit other than Const and Val. Either would let
	// two different blobs stand for one circuit.
	if _, err := Unmarshal(append(data[:len(data):len(data)], 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	odd := append([]byte(nil), data...)
	odd[len(odd)-1] |= 4
	if _, err := Unmarshal(odd); err == nil {
		t.Fatal("decode entry with an unknown bit accepted")
	}
}

func TestEvalRejectsBadInputs(t *testing.T) {
	c := smallCircuit()
	g, labels, err := Garble(c, bbcrypto.Block{0xAA}, bbcrypto.NewPRG(bbcrypto.Block{4}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Eval(c, g, []Block{labels.L0[0]}); err == nil {
		t.Fatal("short input labels accepted")
	}
	bad := *g
	bad.Tables = bad.Tables[:len(bad.Tables)-1]
	inLabels := make([]Block, c.NInputs)
	for i := range inLabels {
		inLabels[i] = labels.For(i, false)
	}
	if _, err := Eval(c, &bad, inLabels); err == nil {
		t.Fatal("truncated tables accepted")
	}
}

func TestWrongLabelGivesGarbage(t *testing.T) {
	// Evaluating with a label the garbler never issued must not (except
	// with negligible probability) produce the correct AND output chain;
	// here we check the decoded output differs from the true value for at
	// least one input assignment, i.e. security is not vacuous.
	b := circuit.NewBuilder(2)
	and := b.AND(b.Input(0), b.Input(1))
	c := b.Build([]circuit.Ref{and})
	g, labels, err := Garble(c, bbcrypto.Block{0xAA}, bbcrypto.NewPRG(bbcrypto.Block{5}))
	if err != nil {
		t.Fatal(err)
	}
	forged := bbcrypto.RandomBlock()
	out, err := Eval(c, g, []Block{forged, labels.For(1, true)})
	if err != nil {
		t.Fatal(err)
	}
	// The forged evaluation yields an undefined bit; the point is that it
	// does not crash and does not reveal labels. Nothing to assert beyond
	// successful, garbage-tolerant execution.
	_ = out
}

func TestGarbledSizeScalesWithANDGates(t *testing.T) {
	small := circuit.BuildAES128()
	g, _, err := Garble(small, bbcrypto.Block{0xAA}, bbcrypto.NewPRG(bbcrypto.Block{6}))
	if err != nil {
		t.Fatal(err)
	}
	wantTables := small.NumAND() * g.Rows
	if len(g.Tables) != wantTables {
		t.Fatalf("table rows = %d, want %d", len(g.Tables), wantTables)
	}
	t.Logf("garbled AES-128: %d AND gates, %d rows/gate, %d bytes on the wire",
		small.NumAND(), g.Rows, g.Size())
}

func TestUnmarshalRejectsBadRows(t *testing.T) {
	c := smallCircuit()
	g, _, err := Garble(c, bbcrypto.Block{0xAA}, bbcrypto.NewPRG(bbcrypto.Block{3}))
	if err != nil {
		t.Fatal(err)
	}
	data := g.Marshal()
	data[16] = 7 // rows byte
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("bad row count accepted")
	}
}

func TestHalfGatesMatchPlainEval(t *testing.T) {
	// Half gates are what Garble does.
	c := smallCircuit()
	g, _, err := Garble(c, bbcrypto.Block{0xAA}, bbcrypto.NewPRG(bbcrypto.Block{1}))
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != 2 || len(g.Tables) != 2*c.NumAND() {
		t.Fatalf("Garble: %d rows per gate, %d rows for %d AND gates", g.Rows, len(g.Tables), c.NumAND())
	}
	for v := 0; v < 8; v++ {
		in := []bool{v&1 != 0, v&2 != 0, v&4 != 0}
		want := c.Evaluate(in)
		got := evalWith(t, c, bbcrypto.Block{byte(v)}, in)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("input %v output %d: half-gates=%v plain=%v", in, i, got[i], want[i])
			}
		}
	}
}

func TestHalfGatesAESMatchesStdlib(t *testing.T) {
	c := circuit.BuildAES128()
	key := make([]byte, 16)
	pt := make([]byte, 16)
	rand.Read(key)
	rand.Read(pt)
	g, labels, err := Garble(c, bbcrypto.Block{1}, bbcrypto.NewPRG(bbcrypto.Block{13}))
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != 2 {
		t.Fatalf("rows = %d, want 2", g.Rows)
	}
	in := append(circuit.BytesToBits(key), circuit.BytesToBits(pt)...)
	inLabels := make([]Block, c.NInputs)
	for i, bit := range in {
		inLabels[i] = labels.For(i, bit)
	}
	bits, err := Eval(c, g, inLabels)
	if err != nil {
		t.Fatal(err)
	}
	got := circuit.BitsToBytes(bits)
	blk, _ := aes.NewCipher(key)
	want := make([]byte, 16)
	blk.Encrypt(want, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("%d-row garbled AES = %x, want %x", g.Rows, got, want)
	}
}

// TestGarbleReadsInputLabelsAtOnce pins the allocation count of a garbling:
// a few slices, not one object per input wire.
func TestGarbleReadsInputLabelsAtOnce(t *testing.T) {
	b := circuit.NewBuilder(1024)
	c := b.Build([]circuit.Ref{b.Equal(b.Inputs(0, 512), b.Inputs(512, 512))})
	prg := bbcrypto.NewPRG(bbcrypto.Block{1})
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := Garble(c, bbcrypto.Block{1}, prg); err != nil {
			t.Fatal(err)
		}
	})
	// Tables, labels, the seed buffer, decode entries and the hash; the
	// portable hash allocates per call, so the pin is for the kernel only.
	if hashAllocFree() && allocs > 16 {
		t.Fatalf("garbling a %d-input circuit allocates %.0f objects, want a handful", c.NInputs, allocs)
	}
}

// hashAllocFree reports whether the fixed-key hash stays off the heap here
// (the AES-NI kernel does; crypto/aes behind purego or off amd64 does not).
func hashAllocFree() bool {
	h := bbcrypto.NewFixedKeyHash(bbcrypto.Block{1})
	var x Block
	return testing.AllocsPerRun(10, func() { x = h.Hash1(x, 1) }) == 0
}

// garbleScalar is the half-gate garbler one gate and one Hash1 at a time, on
// Blocks and branches: the oracle garbleLabels is held to. It returns the
// false label of every wire.
func garbleScalar(c *circuit.Circuit, fixedKey Block, rng io.Reader) (*Garbled, *Labels, []Block, error) {
	h := bbcrypto.NewFixedKeyHash(fixedKey)
	seed := make([]byte, (1+c.NInputs)*bbcrypto.BlockSize)
	if _, err := io.ReadFull(rng, seed); err != nil {
		return nil, nil, nil, err
	}
	var r Block
	copy(r[:], seed)
	r[bbcrypto.BlockSize-1] |= 1
	l0 := make([]Block, c.NInputs+len(c.Gates))
	for i := 0; i < c.NInputs; i++ {
		copy(l0[i][:], seed[(1+i)*bbcrypto.BlockSize:])
	}
	refLabel0 := func(ref circuit.Ref) Block {
		lbl := l0[ref.ID]
		if ref.Neg {
			lbl = lbl.XOR(r)
		}
		return lbl
	}
	g := &Garbled{FixedKey: fixedKey, Rows: 2}
	for gi, gate := range c.Gates {
		out := c.NInputs + gi
		a0, b0 := refLabel0(gate.A), refLabel0(gate.B)
		if gate.Op == circuit.XOR {
			l0[out] = a0.XOR(b0)
			continue
		}
		var tG, tE Block
		l0[out], tG, tE = halfGate(h, r, a0, b0, uint64(gi))
		g.Tables = append(g.Tables, tG, tE)
	}
	for _, ref := range c.Outputs {
		if ref.IsConst {
			g.Decode = append(g.Decode, DecodeEntry{Const: true, Val: ref.Val})
			continue
		}
		g.Decode = append(g.Decode, DecodeEntry{Val: refLabel0(ref).LSB() == 1})
	}
	return g, &Labels{L0: append([]Block(nil), l0[:c.NInputs]...), R: r}, l0, nil
}

// halfGate garbles one AND gate as ZRE15's two half gates with four Hash1s
// and returns the output's false label and the two ciphertexts.
func halfGate(h *bbcrypto.FixedKeyHash, r, a0, b0 Block, gi uint64) (c0, tG, tE Block) {
	pa, pb := a0.LSB(), b0.LSB()
	jG, jE := 2*gi, 2*gi+1
	hA0, hA1 := h.Hash1(a0, jG), h.Hash1(a0.XOR(r), jG)
	hB0, hB1 := h.Hash1(b0, jE), h.Hash1(b0.XOR(r), jE)

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

// evalScalar is the half-gate evaluator one gate and one Hash1 at a time:
// the oracle evalLabels is held to. It returns the label of every wire.
func evalScalar(c *circuit.Circuit, g *Garbled, inputLabels []Block) []Block {
	h := bbcrypto.NewFixedKeyHash(g.FixedKey)
	labels := make([]Block, c.NInputs+len(c.Gates))
	copy(labels, inputLabels)
	andIdx := 0
	for gi, gate := range c.Gates {
		a, b := labels[gate.A.ID], labels[gate.B.ID]
		out := c.NInputs + gi
		if gate.Op == circuit.XOR {
			labels[out] = a.XOR(b)
			continue
		}
		tG, tE := g.Tables[2*andIdx], g.Tables[2*andIdx+1]
		wg := h.Hash1(a, uint64(2*gi))
		if a.LSB() == 1 {
			wg = wg.XOR(tG)
		}
		we := h.Hash1(b, uint64(2*gi+1))
		if b.LSB() == 1 {
			we = we.XOR(tE.XOR(a))
		}
		labels[out] = wg.XOR(we)
		andIdx++
	}
	return labels
}

// oracleCircuits are the shapes the evaluator's AND pairing must get right,
// plus F itself and a pseudorandom circuit.
func oracleCircuits() map[string]*circuit.Circuit {
	cs := map[string]*circuit.Circuit{"small": smallCircuit(), "F": circuit.BuildRuleEncrypt()}

	// An AND whose next AND consumes its output: never paired.
	b := circuit.NewBuilder(3)
	x, y, z := b.Input(0), b.Input(1), b.Input(2)
	cs["chained"] = b.Build([]circuit.Ref{b.AND(b.AND(x, y), z)})

	// Two independent adjacent ANDs: one pair.
	b = circuit.NewBuilder(4)
	x, y, z, w := b.Input(0), b.Input(1), b.Input(2), b.Input(3)
	cs["independent"] = b.Build([]circuit.Ref{b.AND(x, y), b.AND(z, w)})

	// Three ANDs, the last gate an AND left without a partner; an XOR
	// between the pair.
	b = circuit.NewBuilder(4)
	x, y, z, w = b.Input(0), b.Input(1), b.Input(2), b.Input(3)
	a1 := b.AND(x, y)
	x1 := b.XOR(a1, z)
	a2 := b.AND(z, w)
	cs["odd"] = b.Build([]circuit.Ref{b.AND(x1, a2)})

	// Negated AND inputs, on either side and both, and negated outputs.
	b = circuit.NewBuilder(3)
	x, y, z = b.Input(0), b.Input(1), b.Input(2)
	n1 := b.AND(b.NOT(x), y)
	n2 := b.AND(x, b.NOT(z))
	n3 := b.AND(b.NOT(n1), b.NOT(n2))
	cs["negated"] = b.Build([]circuit.Ref{b.NOT(n1), n2, b.NOT(n3), b.NOT(b.XOR(n3, y))})

	// 600 gates over 16 inputs, each op, operand and negation drawn from a
	// fixed stream.
	const nIn = 16
	b = circuit.NewBuilder(nIn)
	refs := b.Inputs(0, nIn)
	rnd := make([]byte, 4*600)
	bbcrypto.NewPRG(bbcrypto.Block{'r', 'n', 'd'}).Read(rnd)
	for i := 0; i+4 <= len(rnd); i += 4 {
		p, q := refs[int(rnd[i])%len(refs)], refs[int(rnd[i+1])%len(refs)]
		if rnd[i+2]&1 == 1 {
			p = b.NOT(p)
		}
		if rnd[i+2]&2 == 2 {
			q = b.NOT(q)
		}
		var g circuit.Ref
		if rnd[i+3]&1 == 1 {
			g = b.AND(p, q)
		} else {
			g = b.XOR(p, q)
		}
		if !g.IsConst {
			refs = append(refs, g)
		}
	}
	cs["random"] = b.Build(refs[len(refs)-32:])
	return cs
}

// TestHalfGatesMatchScalarOracle holds the word kernel — four hashes per
// Hash1x4 at the garbler, two AND gates per Hash1x4 at the evaluator — to
// the scalar loops above: the same garbled bytes, the same label on every
// wire at both ends, and the same decoded outputs.
func TestHalfGatesMatchScalarOracle(t *testing.T) {
	key := bbcrypto.Block{0xAA}
	for name, c := range oracleCircuits() {
		t.Run(name, func(t *testing.T) {
			for seed := byte(0); seed < 3; seed++ {
				g, labels, lab, err := garbleLabels(c, key, bbcrypto.NewPRG(bbcrypto.Block{seed}))
				if err != nil {
					t.Fatal(err)
				}
				wg, wlabels, wl0, err := garbleScalar(c, key, bbcrypto.NewPRG(bbcrypto.Block{seed}))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(g.Marshal(), wg.Marshal()) {
					t.Fatalf("seed %d: garbled bytes differ from the oracle's", seed)
				}
				if labels.R != wlabels.R {
					t.Fatalf("seed %d: R differs", seed)
				}
				for i := range wl0 {
					if bbcrypto.FromWords(lab[i]) != wl0[i] {
						t.Fatalf("seed %d: garbler's false label of wire %d differs", seed, i)
					}
				}

				bits := make([]byte, c.NInputs)
				bbcrypto.NewPRG(bbcrypto.Block{seed, 1}).Read(bits)
				in := make([]bool, c.NInputs)
				inLabels := make([]Block, c.NInputs)
				for i := range in {
					in[i] = bits[i]&1 == 1
					if labels.L0[i] != wlabels.L0[i] {
						t.Fatalf("seed %d: input label %d differs", seed, i)
					}
					inLabels[i] = labels.For(i, in[i])
				}
				got, err := evalLabels(c, g, inLabels)
				if err != nil {
					t.Fatal(err)
				}
				want := evalScalar(c, wg, inLabels)
				for i := range want {
					if bbcrypto.FromWords(got[i]) != want[i] {
						t.Fatalf("seed %d: evaluator's label of wire %d differs", seed, i)
					}
				}
				out, err := Eval(c, g, inLabels)
				if err != nil {
					t.Fatal(err)
				}
				plain := c.Evaluate(in)
				for i, ref := range c.Outputs {
					wantBit := plain[i]
					if !ref.IsConst {
						if oracle := (want[ref.ID].LSB() == 1) != wg.Decode[i].Val; oracle != wantBit {
							t.Fatalf("seed %d: oracle decodes output %d wrong", seed, i)
						}
					}
					if out[i] != wantBit {
						t.Fatalf("seed %d: output %d = %v, want %v", seed, i, out[i], wantBit)
					}
				}
			}
		})
	}
}
