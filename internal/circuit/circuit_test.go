package circuit

import (
	"bytes"
	"crypto/aes"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestBuilderConstantFolding(t *testing.T) {
	b := NewBuilder(2)
	x, y := b.Input(0), b.Input(1)
	if r := b.XOR(Const(true), Const(true)); !r.IsConst || r.Val {
		t.Fatal("const XOR const not folded")
	}
	if r := b.AND(Const(false), x); !r.IsConst || r.Val {
		t.Fatal("AND with false not folded")
	}
	if r := b.AND(Const(true), x); r != x {
		t.Fatal("AND with true not identity")
	}
	if r := b.XOR(x, x); !r.IsConst || r.Val {
		t.Fatal("x XOR x not false")
	}
	if r := b.AND(x, b.NOT(x)); !r.IsConst || r.Val {
		t.Fatal("x AND NOT x not false")
	}
	if r := b.AND(x, x); r != x {
		t.Fatal("x AND x not x")
	}
	if len(b.gates) != 0 {
		t.Fatalf("folding emitted %d gates", len(b.gates))
	}
	_ = y
}

func TestBuilderHashConsing(t *testing.T) {
	b := NewBuilder(2)
	x, y := b.Input(0), b.Input(1)
	g1 := b.AND(x, y)
	g2 := b.AND(y, x) // commuted: must reuse the same gate
	if g1 != g2 {
		t.Fatal("commuted AND not hash-consed")
	}
	x1 := b.XOR(x, y)
	x2 := b.XOR(b.NOT(x), b.NOT(y)) // ¬x⊕¬y == x⊕y
	if x1 != x2 {
		t.Fatalf("XOR negation normalization failed: %+v vs %+v", x1, x2)
	}
	x3 := b.XOR(b.NOT(x), y) // == ¬(x⊕y)
	if x3.ID != x1.ID || x3.Neg == x1.Neg {
		t.Fatal("half-negated XOR must share the gate with flipped polarity")
	}
}

func TestEvaluateTruthTables(t *testing.T) {
	b := NewBuilder(2)
	x, y := b.Input(0), b.Input(1)
	c := b.Build([]Ref{
		b.XOR(x, y), b.AND(x, y), b.OR(x, y), b.NOT(x),
		b.MUX(x, y, b.NOT(y)),
	})
	for _, tc := range []struct {
		in   [2]bool
		want [5]bool
	}{
		{[2]bool{false, false}, [5]bool{false, false, false, true, true}},
		{[2]bool{false, true}, [5]bool{true, false, true, true, false}},
		{[2]bool{true, false}, [5]bool{true, false, true, false, false}},
		{[2]bool{true, true}, [5]bool{false, true, true, false, true}},
	} {
		got := c.Evaluate(tc.in[:])
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("in=%v out[%d]=%v want %v", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

func TestEqualConstAndEqual(t *testing.T) {
	b := NewBuilder(8)
	xs := b.Inputs(0, 4)
	ys := b.Inputs(4, 4)
	c := b.Build([]Ref{
		b.EqualConst(xs, []bool{true, false, true, false}),
		b.Equal(xs, ys),
	})
	in := []bool{true, false, true, false, true, false, true, false}
	got := c.Evaluate(in)
	if !got[0] || !got[1] {
		t.Fatalf("expected both equalities true, got %v", got)
	}
	in[0] = false
	got = c.Evaluate(in)
	if got[0] || got[1] {
		t.Fatalf("expected both equalities false, got %v", got)
	}
}

func TestSBoxGeneration(t *testing.T) {
	sb := SBoxTable()
	// Known values from FIPS-197.
	known := map[int]byte{0x00: 0x63, 0x01: 0x7c, 0x53: 0xed, 0xff: 0x16, 0x10: 0xca}
	for in, want := range known {
		if sb[in] != want {
			t.Fatalf("sbox[%#x] = %#x, want %#x", in, sb[in], want)
		}
	}
	// The S-box must be a permutation.
	var seen [256]bool
	for _, v := range sb {
		if seen[v] {
			t.Fatal("sbox is not a permutation")
		}
		seen[v] = true
	}
}

func TestSBoxCircuitsExhaustive(t *testing.T) {
	sb := SBoxTable()
	b := NewBuilder(8)
	var in cbyte
	copy(in[:], b.Inputs(0, 8))
	out := sboxGF(b, in)
	c := b.Build(out[:])
	for v := 0; v < 256; v++ {
		got := BitsToBytes(c.Evaluate(BytesToBits([]byte{byte(v)})))[0]
		if got != sb[v] {
			t.Fatalf("sbox(%#x) = %#x, want %#x", v, got, sb[v])
		}
	}
	if c.NumAND() != 36 {
		t.Fatalf("tower S-box has %d AND gates, want 36", c.NumAND())
	}
}

// aesFieldMul multiplies in GF(2)[x]/(x^8+x^4+x^3+x+1), the AES
// representation, bit by bit.
func aesFieldMul(a, y byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if y&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1B
		}
		y >>= 1
	}
	return p
}

// TestTowerModelIsTheAESField pins the integer model: the derived constants
// make each quadratic irreducible, and toTower is a field isomorphism from
// the AES representation — it carries every product to the product.
func TestTowerModelIsTheAESField(t *testing.T) {
	if !irreducible(4, towerN, mul2) || !irreducible(16, towerNu, mul4) {
		t.Fatalf("N=%d or nu=%d leaves a reducible quadratic", towerN, towerNu)
	}
	var seen [256]bool
	for a := 0; a < 256; a++ {
		ta := toTower.apply(byte(a))
		if seen[ta] {
			t.Fatalf("toTower is not a bijection: %#x hit twice", ta)
		}
		seen[ta] = true
		for b := 0; b < 256; b++ {
			want := toTower.apply(aesFieldMul(byte(a), byte(b)))
			if got := mul8(ta, toTower.apply(byte(b))); got != want {
				t.Fatalf("toTower(%#x*%#x): tower product %#x, want %#x", a, b, got, want)
			}
		}
	}
	t.Logf("N=%d nu=%d toTower=%x fromTowerAffine=%x", towerN, towerNu, []byte(toTower), []byte(fromTowerAffine))
}

// TestTowerCircuitsMatchModel checks each level of the tower circuit against
// the integer model on every operand: the two multiplications the inverter
// is made of on every pair, the two inverses on every element.
func TestTowerCircuitsMatchModel(t *testing.T) {
	eval := func(c *Circuit, width int, operands ...byte) byte {
		var in []bool
		for _, v := range operands {
			in = append(in, BytesToBits([]byte{v})[:width]...)
		}
		return BitsToBytes(c.Evaluate(in))[0]
	}
	for _, m := range []struct {
		name  string
		width int
		ands  int
		op    fieldOp
		model func(a, b byte) byte
	}{
		{"GF(2^2)", 2, 3, cmul2, mul2},
		{"GF(2^4)", 4, 9, cmul4, mul4},
	} {
		b := NewBuilder(2 * m.width)
		c := b.Build(m.op(b, b.Inputs(0, m.width), b.Inputs(m.width, m.width)))
		if c.NumAND() != m.ands {
			t.Fatalf("%s product has %d AND gates, want %d", m.name, c.NumAND(), m.ands)
		}
		for x := 0; x < 1<<m.width; x++ {
			for y := 0; y < 1<<m.width; y++ {
				if got, want := eval(c, m.width, byte(x), byte(y)), m.model(byte(x), byte(y)); got != want {
					t.Fatalf("%s: %#x*%#x = %#x, model says %#x", m.name, x, y, got, want)
				}
			}
		}
	}
	for _, m := range []struct {
		name  string
		width int
		ands  int
		op    func(*Builder, []Ref) []Ref
		model func(a, b byte) byte
	}{
		{"GF(2^2)", 2, 0, cinv2, mul2},
		{"GF(2^4)", 4, 9, cinv4, mul4},
		{"GF(2^8)", 8, 36, cinv8, mul8},
	} {
		b := NewBuilder(m.width)
		c := b.Build(m.op(b, b.Inputs(0, m.width)))
		if c.NumAND() != m.ands {
			t.Fatalf("%s inverse has %d AND gates, want %d", m.name, c.NumAND(), m.ands)
		}
		if got := eval(c, m.width, 0); got != 0 {
			t.Fatalf("%s: inverse of 0 = %#x, want 0", m.name, got)
		}
		for x := 1; x < 1<<m.width; x++ {
			if inv := eval(c, m.width, byte(x)); m.model(byte(x), inv) != 1 {
				t.Fatalf("%s: %#x * inverse %#x = %#x, want 1", m.name, x, inv, m.model(byte(x), inv))
			}
		}
	}
}

// TestEvaluateLanesMatchesEvaluate runs 64 random inputs through the
// word-parallel evaluator at once and each through Evaluate.
func TestEvaluateLanesMatchesEvaluate(t *testing.T) {
	c := BuildAES128()
	lanes := make([]uint64, c.NInputs)
	for i := range lanes {
		var w [8]byte
		rand.Read(w[:])
		lanes[i] = binary.LittleEndian.Uint64(w[:])
	}
	got := c.evaluateLanes(lanes)
	for j := uint(0); j < 64; j++ {
		in := make([]bool, c.NInputs)
		for i := range in {
			in[i] = lanes[i]>>j&1 == 1
		}
		for i, want := range c.Evaluate(in) {
			if (got[i]>>j&1 == 1) != want {
				t.Fatalf("lane %d output %d: got %v, Evaluate says %v", j, i, !want, want)
			}
		}
	}
}

// TestExpandKey128 checks the out-of-circuit key expansion against the
// FIPS-197 appendix A.1 schedule and, on random keys, against crypto/aes
// used through the rounds-only circuit: encrypting under the expanded key
// must agree with the standard library.
func TestExpandKey128(t *testing.T) {
	key := [16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	rk := ExpandKey128(key)
	if !bytes.Equal(rk[:16], key[:]) {
		t.Fatalf("w[0..3] = %x, want the key", rk[:16])
	}
	for _, w := range []struct {
		i    int
		want string
	}{{4, "a0fafe17"}, {5, "88542cb1"}, {9, "7a96b943"}, {20, "d4d1c6f8"}, {36, "ac7766f3"}, {40, "d014f9a8"}, {43, "b6630ca6"}} {
		if got := hex.EncodeToString(rk[4*w.i : 4*w.i+4]); got != w.want {
			t.Fatalf("w[%d] = %s, want %s", w.i, got, w.want)
		}
	}

	b := NewBuilder(RoundKeyBits + 128)
	c := b.Build(aesRounds(b, b.Inputs(0, RoundKeyBits), b.Inputs(RoundKeyBits, 128)))
	if c.NumAND() != 160*36 {
		t.Fatalf("rounds-only AES has %d AND gates, want %d", c.NumAND(), 160*36)
	}
	for i := 0; i < 20; i++ {
		var k [16]byte
		pt := make([]byte, 16)
		rand.Read(k[:])
		rand.Read(pt)
		rk := ExpandKey128(k)
		got := BitsToBytes(c.Evaluate(append(BytesToBits(rk[:]), BytesToBits(pt)...)))
		if want := stdAES(t, k[:], pt); !bytes.Equal(got, want) {
			t.Fatalf("key %x pt %x: rounds under ExpandKey128 = %x, crypto/aes = %x", k, pt, got, want)
		}
	}
}

// TestKeyScheduleInAndOutOfCircuitAgree: AESEncrypt's in-circuit schedule
// and ExpandKey128 are the same gates; their outputs must be equal.
func TestKeyScheduleInAndOutOfCircuitAgree(t *testing.T) {
	b := NewBuilder(128)
	c := b.Build(keySchedule(b, b.Inputs(0, 128)))
	for i := 0; i < 10; i++ {
		var k [16]byte
		rand.Read(k[:])
		want := ExpandKey128(k)
		if got := BitsToBytes(c.Evaluate(BytesToBits(k[:]))); !bytes.Equal(got, want[:]) {
			t.Fatalf("key %x: in-circuit schedule %x, ExpandKey128 %x", k, got, want)
		}
	}
}

func stdAES(t *testing.T, key, pt []byte) []byte {
	t.Helper()
	blk, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 16)
	blk.Encrypt(out, pt)
	return out
}

func TestAES128CircuitFIPS197Vector(t *testing.T) {
	// FIPS-197 appendix C.1.
	key := []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
		0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f}
	pt := []byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
		0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	want := []byte{0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
		0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a}
	c := BuildAES128()
	in := append(BytesToBits(key), BytesToBits(pt)...)
	got := BitsToBytes(c.Evaluate(in))
	if !bytes.Equal(got, want) {
		t.Fatalf("AES circuit = %x, want %x", got, want)
	}
}

func TestAES128CircuitMatchesStdlib(t *testing.T) {
	c := BuildAES128()
	for i := 0; i < 10; i++ {
		key := make([]byte, 16)
		pt := make([]byte, 16)
		rand.Read(key)
		rand.Read(pt)
		want := stdAES(t, key, pt)
		in := append(BytesToBits(key), BytesToBits(pt)...)
		got := BitsToBytes(c.Evaluate(in))
		if !bytes.Equal(got, want) {
			t.Fatalf("key=%x pt=%x: circuit=%x stdlib=%x", key, pt, got, want)
		}
	}
}

func TestAESGateCount(t *testing.T) {
	// 200 S-boxes (40 of them the key schedule) x 36 ANDs; nothing else
	// costs ANDs.
	if n := BuildAES128().NumAND(); n != 200*36 {
		t.Fatalf("AES AND count = %d, want %d", n, 200*36)
	}
}

// ruleEncryptInput lays out F's inputs as an honest endpoint pair and a
// middlebox holding (x, tag) would.
func ruleEncryptInput(k, krg [16]byte, x, tag []byte) []bool {
	rk, rkRG := ExpandKey128(k), ExpandKey128(krg)
	in := make([]bool, RuleEncryptNInputs)
	copy(in[RuleEncryptXOff:], BytesToBits(x))
	copy(in[RuleEncryptTagOff:], BytesToBits(tag))
	copy(in[RuleEncryptKOff:], BytesToBits(rk[:]))
	copy(in[RuleEncryptKRGOff:], BytesToBits(rkRG[:]))
	return in
}

// TestRuleEncryptCircuit checks F against crypto/aes on 1000 random
// (k, kRG, x): AES_k(x) under the right tag, all zeros (⊥) under a tag
// that differs in one random bit.
func TestRuleEncryptCircuit(t *testing.T) {
	c := BuildRuleEncrypt()
	for i := 0; i < 1000; i++ {
		var k, krg [16]byte
		x := make([]byte, 16)
		rand.Read(k[:])
		rand.Read(krg[:])
		rand.Read(x)
		in := ruleEncryptInput(k, krg, x, stdAES(t, krg[:], x))
		if got, want := BitsToBytes(c.Evaluate(in)), stdAES(t, k[:], x); !bytes.Equal(got, want) {
			t.Fatalf("authorized input: F = %x, want AES_k(x) = %x", got, want)
		}
		flip := RuleEncryptTagOff + int(x[0])%128
		in[flip] = !in[flip]
		if got := BitsToBytes(c.Evaluate(in)); !bytes.Equal(got, make([]byte, 16)) {
			t.Fatalf("unauthorized input: F = %x, want zeros", got)
		}
	}
}

// TestRuleEncryptGateCount pins F's size exactly: 320 S-boxes of 36 ANDs
// (both key schedules are outside the circuit), 127 for the tag comparison,
// 128 for the output gate.
func TestRuleEncryptGateCount(t *testing.T) {
	c := BuildRuleEncrypt()
	if c.NumAND() != 320*36+127+128 {
		t.Fatalf("F has %d AND gates, want %d", c.NumAND(), 320*36+127+128)
	}
	if c.NInputs != 256+2*RoundKeyBits {
		t.Fatalf("F has %d inputs, want %d", c.NInputs, 256+2*RoundKeyBits)
	}
	t.Logf("F: %v", c)
}

func TestBytesBitsRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > 64 {
			return true
		}
		return bytes.Equal(BitsToBytes(BytesToBits(data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateWrongInputCountPanics(t *testing.T) {
	b := NewBuilder(2)
	c := b.Build([]Ref{b.Input(0)})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input count")
		}
	}()
	c.Evaluate([]bool{true})
}
