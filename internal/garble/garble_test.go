package garble

import (
	"bytes"
	"crypto/aes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
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
	c := circuit.BuildAES128(circuit.SBoxGF)
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
	c := circuit.BuildRuleEncrypt(circuit.SBoxGF)
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
	small := circuit.BuildAES128(circuit.SBoxGF)
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

func TestGRR3AndFullRowsAgree(t *testing.T) {
	// Both ablation variants must decode to the plain evaluation on every
	// input.
	c := smallCircuit()
	for v := 0; v < 8; v++ {
		in := []bool{v&1 != 0, v&2 != 0, v&4 != 0}
		want := c.Evaluate(in)
		for _, opts := range []Options{{GRR3: true}, {FullRows: true}} {
			g, labels, err := GarbleWith(c, bbcrypto.Block{0xAA}, bbcrypto.NewPRG(bbcrypto.Block{byte(v)}), opts)
			if err != nil {
				t.Fatal(err)
			}
			inLabels := make([]Block, c.NInputs)
			for i, bit := range in {
				inLabels[i] = labels.For(i, bit)
			}
			got, err := Eval(c, g, inLabels)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("opts %+v input %v output %d: garbled=%v plain=%v", opts, in, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGRR3SavesAQuarter(t *testing.T) {
	c := circuit.BuildAES128(circuit.SBoxGF)
	grr, _, err := GarbleWith(c, bbcrypto.Block{1}, bbcrypto.NewPRG(bbcrypto.Block{1}), Options{GRR3: true})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := GarbleWith(c, bbcrypto.Block{1}, bbcrypto.NewPRG(bbcrypto.Block{1}), Options{FullRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if grr.Rows != 3 || full.Rows != 4 {
		t.Fatalf("rows = %d/%d", grr.Rows, full.Rows)
	}
	if len(grr.Tables)*4 != len(full.Tables)*3 {
		t.Fatalf("GRR3 did not save exactly one row per gate: %d vs %d", len(grr.Tables), len(full.Tables))
	}
	ratio := float64(grr.Size()) / float64(full.Size())
	if ratio < 0.74 || ratio > 0.76 {
		t.Fatalf("GRR3 size ratio = %.3f, want ~0.75", ratio)
	}
}

// garbledAES evaluates the AES-128 circuit garbled under opts on a random
// key and block and compares with crypto/aes.
func garbledAES(t *testing.T, opts Options, wantRows int) {
	t.Helper()
	c := circuit.BuildAES128(circuit.SBoxGF)
	key := make([]byte, 16)
	pt := make([]byte, 16)
	rand.Read(key)
	rand.Read(pt)
	g, labels, err := GarbleWith(c, bbcrypto.Block{1}, bbcrypto.NewPRG(bbcrypto.Block{13}), opts)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != wantRows {
		t.Fatalf("rows = %d, want %d", g.Rows, wantRows)
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
		t.Fatalf("%d-row garbled AES = %x, want %x", wantRows, got, want)
	}
}

func TestGarbledGRR3AESMatchesStdlib(t *testing.T) {
	// The reduced-row garbled AES must still compute real AES.
	garbledAES(t, Options{GRR3: true}, 3)
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
	garbledAES(t, Options{}, 2)
}

func TestHalfGatesHalveGRR3(t *testing.T) {
	c := circuit.BuildAES128(circuit.SBoxGF)
	hg, _, err := Garble(c, bbcrypto.Block{1}, bbcrypto.NewPRG(bbcrypto.Block{1}))
	if err != nil {
		t.Fatal(err)
	}
	grr, _, err := GarbleWith(c, bbcrypto.Block{1}, bbcrypto.NewPRG(bbcrypto.Block{1}), Options{GRR3: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(hg.Tables)*3 != len(grr.Tables)*2 {
		t.Fatalf("half gates = %d rows, GRR3 = %d rows", len(hg.Tables), len(grr.Tables))
	}
}

func TestConflictingOptionsRejected(t *testing.T) {
	if _, _, err := GarbleWith(smallCircuit(), bbcrypto.Block{1}, bbcrypto.NewPRG(bbcrypto.Block{1}),
		Options{FullRows: true, GRR3: true}); err == nil {
		t.Fatal("conflicting options accepted")
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
