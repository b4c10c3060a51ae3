// AES-128 as a boolean circuit, plus the obfuscated-rule-encryption
// function F of §3.3. Bytes are represented as 8 wire references, least
// significant bit first.

package circuit

import (
	"math/bits"
	"sync"
)

// sbox is the AES S-box, generated (rather than transcribed) to avoid
// typos: multiplicative inverse in GF(2^8) followed by the affine map.
var sbox = func() [256]byte {
	var sb [256]byte
	// Walk the multiplicative group: p runs over generator-3 powers while q
	// runs over inverse powers, so q = p^-1 throughout.
	p, q := byte(1), byte(1)
	for {
		// p *= 3 (i.e. p = p ^ xtime(p)).
		xt := p << 1
		if p&0x80 != 0 {
			xt ^= 0x1B
		}
		p ^= xt
		// q /= 3.
		q ^= q << 1
		q ^= q << 2
		q ^= q << 4
		if q&0x80 != 0 {
			q ^= 0x09
		}
		sb[p] = affine(q)
		if p == 1 {
			break
		}
	}
	sb[0] = affine(0)
	return sb
}()

func affine(q byte) byte {
	return q ^ bits.RotateLeft8(q, 1) ^ bits.RotateLeft8(q, 2) ^
		bits.RotateLeft8(q, 3) ^ bits.RotateLeft8(q, 4) ^ 0x63
}

// SBoxTable exposes the generated S-box for tests and the plaintext
// baseline.
func SBoxTable() [256]byte { return sbox }

// cbyte is a circuit byte: 8 refs, LSB first.
type cbyte [8]Ref

// sboxGF builds the S-box from the tower-field inverse: into the tower, invert,
// and back out through the affine transform's linear part; the transform's
// constant 0x63 is a negation of the bits it sets. The inversion runs in the
// tower field GF(((2^2)^2)^2) (tower.go): 36 AND gates; the changes of basis
// and the affine transform are XOR-only and free.
func sboxGF(b *Builder, x cbyte) cbyte {
	lin := linear(b, fromTowerAffine, cinv8(b, linear(b, toTower, x[:])))
	var out cbyte
	for i := range out {
		out[i] = lin[i]
		if affine(0)&(1<<uint(i)) != 0 {
			out[i] = b.NOT(out[i])
		}
	}
	return out
}

// xtimeC doubles a circuit byte in GF(2^8) — free.
func xtimeC(b *Builder, x cbyte) cbyte {
	var out cbyte
	out[0] = x[7]
	out[1] = b.XOR(x[0], x[7])
	out[2] = x[1]
	out[3] = b.XOR(x[2], x[7])
	out[4] = b.XOR(x[3], x[7])
	out[5] = x[4]
	out[6] = x[5]
	out[7] = x[6]
	return out
}

func xorBytes(b *Builder, x, y cbyte) cbyte {
	var out cbyte
	for i := range out {
		out[i] = b.XOR(x[i], y[i])
	}
	return out
}

func constByte(v byte) cbyte {
	var out cbyte
	for i := range out {
		out[i] = Const(v&(1<<uint(i)) != 0)
	}
	return out
}

// RoundKeyBits is the width of an expanded AES-128 key: 11 round keys of
// 128 bits, in the byte order of the FIPS-197 key schedule w[0..43].
const RoundKeyBits = 11 * 128

func toBytes(bits []Ref) []cbyte {
	out := make([]cbyte, len(bits)/8)
	for i := range out {
		copy(out[i][:], bits[i*8:i*8+8])
	}
	return out
}

func fromBytes(bytes []cbyte) []Ref {
	out := make([]Ref, 0, len(bytes)*8)
	for _, by := range bytes {
		out = append(out, by[:]...)
	}
	return out
}

// keySchedule appends the AES-128 key expansion: 128 key bits in,
// RoundKeyBits out (40 S-boxes).
func keySchedule(b *Builder, keyBits []Ref) []Ref {
	mustWidth("AES key", len(keyBits), 128)
	rcon := [10]byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36}
	w := toBytes(keyBits) // w[4i..4i+3] is word i
	for i := 4; i < 44; i++ {
		temp := [4]cbyte(w[4*i-4 : 4*i])
		if i%4 == 0 {
			// RotWord then SubWord then Rcon.
			temp = [4]cbyte{temp[1], temp[2], temp[3], temp[0]}
			for j := range temp {
				temp[j] = sboxGF(b, temp[j])
			}
			temp[0] = xorBytes(b, temp[0], constByte(rcon[i/4-1]))
		}
		for j := range temp {
			w = append(w, xorBytes(b, w[4*(i-4)+j], temp[j]))
		}
	}
	return fromBytes(w)
}

// aesRounds appends the ten AES-128 rounds under already-expanded round keys
// (RoundKeyBits wide) to the builder: 160 S-boxes. Whether the round keys
// are computed in the circuit (AESEncrypt) or are input wires (F) is the
// caller's business.
func aesRounds(b *Builder, roundKeys, ptBits []Ref) []Ref {
	mustWidth("AES round keys", len(roundKeys), RoundKeyBits)
	mustWidth("AES block", len(ptBits), 128)
	rk := toBytes(roundKeys)
	state := toBytes(ptBits)

	// State byte (row r, column c) sits at flat index r+4c, which is also
	// its index within a round key.
	addRoundKey := func(round int) {
		for i := range state {
			state[i] = xorBytes(b, state[i], rk[16*round+i])
		}
	}
	subBytesAll := func() {
		for i := range state {
			state[i] = sboxGF(b, state[i])
		}
	}
	shiftRows := func() {
		old := make([]cbyte, 16)
		copy(old, state)
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				state[r+4*c] = old[r+4*((c+r)%4)]
			}
		}
	}
	mixColumns := func() {
		for c := 0; c < 4; c++ {
			var a, d [4]cbyte
			for r := 0; r < 4; r++ {
				a[r] = state[r+4*c]
				d[r] = xtimeC(b, a[r])
			}
			for r := 0; r < 4; r++ {
				// 2*a[r] ^ 3*a[r+1] ^ a[r+2] ^ a[r+3]
				out := d[r]
				out = xorBytes(b, out, d[(r+1)%4])
				out = xorBytes(b, out, a[(r+1)%4])
				out = xorBytes(b, out, a[(r+2)%4])
				out = xorBytes(b, out, a[(r+3)%4])
				state[r+4*c] = out
			}
		}
	}

	addRoundKey(0)
	for round := 1; round <= 9; round++ {
		subBytesAll()
		shiftRows()
		mixColumns()
		addRoundKey(round)
	}
	subBytesAll()
	shiftRows()
	addRoundKey(10)
	return fromBytes(state)
}

// AESEncrypt appends an AES-128 encryption, key schedule included, to the
// builder: keyBits and ptBits are 128 wire references each (byte order as in
// FIPS-197 input blocks, LSB-first within each byte); the returned 128 refs
// are the ciphertext bits.
func AESEncrypt(b *Builder, keyBits, ptBits []Ref) []Ref {
	return aesRounds(b, keySchedule(b, keyBits), ptBits)
}

// BuildAES128 builds a standalone AES-128 circuit: inputs are 128 key bits
// followed by 128 plaintext bits; outputs are the 128 ciphertext bits.
func BuildAES128() *Circuit {
	b := NewBuilder(256)
	out := AESEncrypt(b, b.Inputs(0, 128), b.Inputs(128, 128))
	return b.Build(out)
}

// keyScheduleCircuit is the key expansion on its own, for ExpandKey128.
var keyScheduleCircuit = sync.OnceValue(func() *Circuit {
	b := NewBuilder(128)
	return b.Build(keySchedule(b, b.Inputs(0, 128)))
})

// ExpandKey128 returns the 11 AES-128 round keys of key, w[0..43] of
// FIPS-197 §5.2 as bytes, by evaluating the key-schedule circuit in the
// clear. This is how an endpoint expands k and kRG before feeding the round
// keys to F as input labels: the same gates AESEncrypt would have put in
// the circuit, evaluated without a branch or a table index that depends on
// a key bit (evaluateLanes).
//
//bb:secret key return
func ExpandKey128(key [16]byte) [RoundKeyBits / 8]byte {
	in := make([]uint64, 128)
	for i := range in {
		in[i] = uint64(key[i/8] >> uint(i%8) & 1)
	}
	var rk [RoundKeyBits / 8]byte
	for i, v := range keyScheduleCircuit().evaluateLanes(in) {
		rk[i/8] |= byte(v&1) << uint(i%8)
	}
	return rk
}

// Input layout of BuildRuleEncrypt. The middlebox's wires come first, so
// they are the first 256 whatever the endpoints feed.
const (
	// RuleEncryptXOff is the offset of the keyword-fragment block x
	// (middlebox input, obtained via oblivious transfer).
	RuleEncryptXOff = 0
	// RuleEncryptTagOff is the offset of RG's authorization tag for x
	// (middlebox input, obtained via oblivious transfer).
	RuleEncryptTagOff = 128
	// RuleEncryptKOff is the offset of the round keys of the session
	// detection key k, RoundKeyBits wide (endpoint input, labels handed to
	// MB directly).
	RuleEncryptKOff = 256
	// RuleEncryptKRGOff is the offset of the round keys of RG's tag key,
	// RoundKeyBits wide (endpoint input).
	RuleEncryptKRGOff = RuleEncryptKOff + RoundKeyBits
	// RuleEncryptNInputs is the total input width.
	RuleEncryptNInputs = RuleEncryptKRGOff + RoundKeyBits
)

// BuildRuleEncrypt builds the obfuscated-rule-encryption function F of
// §3.3: on input [x, tag] (middlebox) and the expanded [k, kRG] (endpoints),
//
//	F = AES_k(x)   if tag == AES_kRG(x)   (x is RG-authorized)
//	F = 0          otherwise
//
// The paper's F verifies RG's signature on x; a public-key verification
// circuit is infeasible to garble, so BlindBox-style deployments use a
// symmetric authorization check (DESIGN.md substitution #3): RG's tag key
// is installed at the endpoints, RG hands tags to the middlebox, and the
// circuit releases AES_k(x) only for tagged inputs.
//
// Both keys belong to the garbler, so their schedules stay outside F: the
// endpoints expand them (ExpandKey128) and the round keys are input wires,
// which costs labels but no gate. F is the 2 x 160 S-boxes of the rounds,
// the 127 ANDs of the tag comparison and the 128 of the output gate.
func BuildRuleEncrypt() *Circuit {
	b := NewBuilder(RuleEncryptNInputs)
	x := b.Inputs(RuleEncryptXOff, 128)
	tag := b.Inputs(RuleEncryptTagOff, 128)

	mac := aesRounds(b, b.Inputs(RuleEncryptKRGOff, RoundKeyBits), x)
	ok := b.Equal(mac, tag)
	enc := aesRounds(b, b.Inputs(RuleEncryptKOff, RoundKeyBits), x)
	out := make([]Ref, 128)
	for i := range out {
		out[i] = b.AND(ok, enc[i])
	}
	return b.Build(out)
}

// BytesToBits expands bytes to bools, LSB-first within each byte — the bit
// convention of every circuit in this package.
func BytesToBits(data []byte) []bool {
	out := make([]bool, len(data)*8)
	for i, by := range data {
		for j := 0; j < 8; j++ {
			out[i*8+j] = by&(1<<uint(j)) != 0
		}
	}
	return out
}

// BitsToBytes packs bools back into bytes, LSB-first within each byte.
func BitsToBytes(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, v := range bits {
		if v {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}
