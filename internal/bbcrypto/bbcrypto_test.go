package bbcrypto

import (
	"bytes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestBlockXOR(t *testing.T) {
	a := Block{1, 2, 3}
	b := Block{255, 2, 1}
	got := a.XOR(b)
	want := Block{254, 0, 2}
	if got != want {
		t.Fatalf("XOR = %v, want %v", got, want)
	}
	if a.XOR(a) != (Block{}) {
		t.Fatal("a XOR a must be zero")
	}
}

func TestBlockXORProperties(t *testing.T) {
	f := func(a, b Block) bool {
		if a.XOR(b) != b.XOR(a) {
			return false
		}
		return a.XOR(b).XOR(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleLinear(t *testing.T) {
	// Doubling is linear over GF(2): 2(a ⊕ b) == 2a ⊕ 2b.
	f := func(a, b Block) bool {
		return a.XOR(b).Double() == a.Double().XOR(b.Double())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleKnownValues(t *testing.T) {
	// 2·1 = x (shift left by one within the 128-bit value).
	var one Block
	one[BlockSize-1] = 1
	two := one.Double()
	var wantTwo Block
	wantTwo[BlockSize-1] = 2
	if two != wantTwo {
		t.Fatalf("2*1 = %v, want %v", two, wantTwo)
	}
	// Doubling a block with the top bit set must fold in the reduction
	// polynomial 0x87.
	var top Block
	top[0] = 0x80
	got := top.Double()
	var want Block
	want[BlockSize-1] = 0x87
	if got != want {
		t.Fatalf("2*x^127 = %v, want %v", got, want)
	}
}

// TestWordWiseBlockOpsMatchByteWise checks XOR and Double, which work on two
// 64-bit words, against their byte-at-a-time definitions, and the Words form
// the garbler computes in against Block: XOR and LSB carry over word for
// word, and FromWords undoes Words.
func TestWordWiseBlockOpsMatchByteWise(t *testing.T) {
	xorBytes := func(a, b Block) Block {
		var r Block
		for i := range a {
			r[i] = a[i] ^ b[i]
		}
		return r
	}
	doubleBytes := func(b Block) Block {
		var r Block
		for i := 0; i < BlockSize-1; i++ {
			r[i] = b[i]<<1 | b[i+1]>>7
		}
		r[BlockSize-1] = b[BlockSize-1] << 1
		if b[0]>>7 == 1 {
			r[BlockSize-1] ^= 0x87
		}
		return r
	}
	f := func(a, b Block) bool {
		wa, wb := a.Words(), b.Words()
		return a.XOR(b) == xorBytes(a, b) && a.Double() == doubleBytes(a) &&
			FromWords(wa) == a && FromWords([2]uint64{wa[0] ^ wb[0], wa[1] ^ wb[1]}) == a.XOR(b) &&
			int(wa[1]&1) == a.LSB()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomBlockDistinct(t *testing.T) {
	seen := make(map[Block]bool)
	for i := 0; i < 64; i++ {
		b := RandomBlock()
		if seen[b] {
			t.Fatal("RandomBlock returned a repeated value")
		}
		seen[b] = true
	}
}

func TestEncryptBlockMatchesStdlib(t *testing.T) {
	key := Block{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	pt := Block{16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	var want Block
	NewAES(key).Encrypt(want[:], pt[:])
	if got := EncryptBlock(key, pt); got != want {
		t.Fatalf("EncryptBlock = %v, want %v", got, want)
	}
}

func TestFixedKeyHashDeterministic(t *testing.T) {
	h1 := NewFixedKeyHash(Block{42})
	h2 := NewFixedKeyHash(Block{42})
	a := RandomBlock()
	if h1.Hash1(a, 7) != h2.Hash1(a, 7) {
		t.Fatal("same fixed key must give same hash")
	}
	if h1.Hash1(a, 3) == h1.Hash1(a, 4) {
		t.Fatal("Hash1 tweak must matter")
	}
}

// TestFixedKeyHashMatchesDefinition recomputes π(K) ⊕ K through crypto/aes:
// circuits garbled on different machines (AES-NI kernel, purego fallback)
// are compared bit for bit, so the hash may not depend on the kernel.
func TestFixedKeyHashMatchesDefinition(t *testing.T) {
	key := Block{'f', 'i', 'x', 'e', 'd'}
	h, pi := NewFixedKeyHash(key), NewAES(key)
	def := func(k Block, tweak uint64) Block {
		k[15] ^= byte(tweak)
		k[14] ^= byte(tweak >> 8)
		var out Block
		pi.Encrypt(out[:], k[:])
		return out.XOR(k)
	}
	f := func(a Block, tweak uint16) bool {
		return h.Hash1(a, uint64(tweak)) == def(a.Double(), uint64(tweak))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestFixedKeyHashDoesNotAllocate: garbling calls the hash four times per
// AND gate; on the assembly kernel it must stay off the heap.
func TestFixedKeyHashDoesNotAllocate(t *testing.T) {
	h := NewFixedKeyHash(Block{7})
	b := Block{2}
	x := [4]Block{{3}, {4}, {5}, {6}}
	w := [4][2]uint64{{3}, {4}, {5}, {6}}
	allocs := testing.AllocsPerRun(100, func() {
		b = h.Hash1(b, 6)
		h.Hash1x4(&w, &w, &[4]uint64{1, 2, 3, 4})
		h.CRHash4(&x, &x, &[4]uint64{1, 2, 3, 4})
	})
	if scheduleAllocFree() && allocs != 0 {
		t.Fatalf("Hash1+Hash1x4+CRHash4 allocate %.0f objects per call, want 0", allocs)
	}
}

// TestHash1x4MatchesHash1: the four-wide word form is exactly four Hash1s
// on the blocks the words spell, so garbling through it leaves every
// garbled byte where it was.
func TestHash1x4MatchesHash1(t *testing.T) { checkHash1x4MatchesHash1(t) }

// checkHash1x4MatchesHash1 is TestHash1x4MatchesHash1; the amd64 test file
// reruns it with AES-NI switched off.
func checkHash1x4MatchesHash1(t *testing.T) {
	t.Helper()
	h := NewFixedKeyHash(Block{'f', 'i', 'x', 'e', 'd'})
	f := func(a [4]Block, tweak [4]uint64) bool {
		var in, got [4][2]uint64
		for i := range a {
			in[i] = a[i].Words()
		}
		h.Hash1x4(&got, &in, &tweak)
		for i := range got {
			if FromWords(got[i]) != h.Hash1(a[i], tweak[i]) {
				return false
			}
		}
		// In place, as the garbler calls it.
		h.Hash1x4(&in, &in, &tweak)
		return in == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCRHash4MatchesDefinition recomputes π(π(x) ⊕ j) ⊕ π(x) through
// crypto/aes, lane by lane.
func TestCRHash4MatchesDefinition(t *testing.T) {
	key := Block{'c', 'r'}
	h, pi := NewFixedKeyHash(key), NewAES(key)
	def := func(x Block, tweak uint64) Block {
		var px, out Block
		pi.Encrypt(px[:], x[:])
		k := px
		binary.BigEndian.PutUint64(k[8:], binary.BigEndian.Uint64(k[8:])^tweak)
		pi.Encrypt(out[:], k[:])
		return out.XOR(px)
	}
	f := func(x [4]Block, tweak [4]uint64) bool {
		var got [4]Block
		h.CRHash4(&got, &x, &tweak)
		for i := range got {
			if got[i] != def(x[i], tweak[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	x := [4]Block{{1}, {1}, {1}, {1}}
	if h.CRHash4(&x, &x, &[4]uint64{0, 1, 0, 1}); x[0] == x[1] || x[0] != x[2] {
		t.Fatal("CRHash4's tweak must matter, and only it")
	}
}

func TestFixedKeyHashKeyMatters(t *testing.T) {
	a := RandomBlock()
	if NewFixedKeyHash(Block{1}).Hash1(a, 0) == NewFixedKeyHash(Block{2}).Hash1(a, 0) {
		t.Fatal("different fixed keys must give different hashes")
	}
}

func TestPRGDeterministic(t *testing.T) {
	g1 := NewPRG(Block{9})
	g2 := NewPRG(Block{9})
	b1 := make([]byte, 1024)
	b2 := make([]byte, 1024)
	if _, err := g1.Read(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Read(b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("same seed must give same stream")
	}
	g3 := NewPRG(Block{10})
	b3 := make([]byte, 1024)
	g3.Read(b3)
	if bytes.Equal(b1, b3) {
		t.Fatal("different seeds must give different streams")
	}
}

func TestPRGReadOverwritesInput(t *testing.T) {
	// Read must produce the keystream regardless of prior buffer contents.
	g1 := NewPRG(Block{5})
	g2 := NewPRG(Block{5})
	b1 := make([]byte, 64)
	b2 := make([]byte, 64)
	for i := range b2 {
		b2[i] = 0xFF
	}
	g1.Read(b1)
	g2.Read(b2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("PRG output must not depend on buffer contents")
	}
}

func TestPRGBlockAdvances(t *testing.T) {
	g := NewPRG(Block{1})
	if g.Block() == g.Block() {
		t.Fatal("consecutive PRG blocks must differ")
	}
}

// HKDF derives n bytes of key material from the input secret, salt and
// info label using HKDF-SHA256 (RFC 5869), on crypto/hmac: the reference
// DeriveBlock is held to.
func HKDF(secret, salt, info []byte, n int) []byte {
	if salt == nil {
		salt = make([]byte, sha256.Size)
	}
	ext := hmac.New(sha256.New, salt)
	ext.Write(secret)
	prk := ext.Sum(nil)

	var (
		out  []byte
		prev []byte
	)
	for counter := byte(1); len(out) < n; counter++ {
		exp := hmac.New(sha256.New, prk)
		exp.Write(prev)
		exp.Write(info)
		exp.Write([]byte{counter})
		prev = exp.Sum(nil)
		out = append(out, prev...)
	}
	return out[:n]
}

// TestDeriveBlockMatchesHKDF holds DeriveBlock's stack HMACs to the
// crypto/hmac reference: random secrets of 0–100 bytes under random labels,
// and secrets and labels on both sides of the stack buffer's bound.
func TestDeriveBlockMatchesHKDF(t *testing.T) {
	rnd := NewPRG(Block{'h', 'k', 'd', 'f'})
	buf := make([]byte, 2*hmacStack+2)
	check := func(secret []byte, label string) {
		t.Helper()
		got := DeriveBlock(secret, label)
		if want := HKDF(secret, nil, []byte(label), BlockSize); !bytes.Equal(got[:], want) {
			t.Fatalf("DeriveBlock(%d-byte secret, %d-byte label) = %x, want %x", len(secret), len(label), got, want)
		}
	}
	for i := 0; i < 500; i++ {
		rnd.Read(buf[:2])
		secret, label := make([]byte, int(buf[0])%101), make([]byte, int(buf[1])%40)
		rnd.Read(secret)
		rnd.Read(label)
		check(secret, string(label))
	}
	for _, n := range []int{0, hmacStack - 1, hmacStack, hmacStack + 1, 2*hmacStack + 2} {
		rnd.Read(buf)
		check(buf[:n], "blindbox k")
		check([]byte("k0"), string(buf[:n]))
	}
}

// TestDeriveBlockDoesNotAllocate: a connection derives its session keys
// and every garbling seed through DeriveBlock, so it allocates nothing.
func TestDeriveBlockDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	secret := []byte("a master secret of some length")
	var sink Block
	for _, label := range []string{"blindbox krand", "blindbox ruleprep 65535"} {
		if allocs := testing.AllocsPerRun(100, func() { sink = DeriveBlock(secret, label) }); allocs != 0 {
			t.Fatalf("DeriveBlock(%q) allocates %.0f objects, want 0", label, allocs)
		}
	}
	_ = sink
}

// TestCTRMatchesPRG holds CTR to crypto/cipher's CTR, which NewPRG wraps:
// at block 0 its stream is NewPRG's, at any position it is the stream
// from that counter on, however the reads are split.
func TestCTRMatchesPRG(t *testing.T) {
	key := Block{'c', 't', 'r'}
	want := make([]byte, 1000)
	NewPRG(key).Read(want)
	for _, split := range []int{1, 5, 16, 17, 63, 64, 65, 200} {
		var c CTR
		c.Reset(&key, 0)
		got := make([]byte, len(want))
		for off := 0; off < len(got); off += split {
			c.Read(got[off:min(off+split, len(got))])
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("reads of %d bytes differ from NewPRG's stream", split)
		}
	}
	for _, pos := range []uint64{1, 7, 1 << 25, 1<<57 + 3} {
		var iv Block
		binary.BigEndian.PutUint64(iv[8:], pos)
		want := make([]byte, 100)
		cipher.NewCTR(NewAES(key), iv[:]).XORKeyStream(want, want)
		var c CTR
		c.Reset(&key, pos)
		got := make([]byte, len(want))
		c.Read(got[:3])
		c.Read(got[3:])
		if !bytes.Equal(got, want) {
			t.Fatalf("the stream at block %d is not AES-CTR from that counter", pos)
		}
	}
}

// TestCTRDoesNotAllocate: keying and reading a CTR held by value costs no
// heap object where the Schedule kernel exists.
func TestCTRDoesNotAllocate(t *testing.T) {
	if raceEnabled || !scheduleAllocFree() {
		t.Skip("the race detector or crypto/aes behind Schedule allocates on its own")
	}
	key := Block{1}
	buf := make([]byte, 1000)
	var c CTR
	allocs := testing.AllocsPerRun(100, func() {
		c.Reset(&key, 3)
		c.Read(buf[:7])
		c.Read(buf[7:])
	})
	if allocs != 0 {
		t.Fatalf("Reset and Read allocate %.0f objects, want 0", allocs)
	}
}

func TestHKDFRFC5869Vector(t *testing.T) {
	// RFC 5869 test case 1.
	ikm := bytes.Repeat([]byte{0x0b}, 22)
	salt := []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c}
	info := []byte{0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9}
	want := []byte{
		0x3c, 0xb2, 0x5f, 0x25, 0xfa, 0xac, 0xd5, 0x7a, 0x90, 0x43, 0x4f,
		0x64, 0xd0, 0x36, 0x2f, 0x2a, 0x2d, 0x2d, 0x0a, 0x90, 0xcf, 0x1a,
		0x5a, 0x4c, 0x5d, 0xb0, 0x2d, 0x56, 0xec, 0xc4, 0xc5, 0xbf, 0x34,
		0x00, 0x72, 0x08, 0xd5, 0xb8, 0x87, 0x18, 0x58, 0x65,
	}
	got := HKDF(ikm, salt, info, 42)
	if !bytes.Equal(got, want) {
		t.Fatalf("HKDF = %x, want %x", got, want)
	}
}

func TestHKDFNilSaltEqualsZeroSalt(t *testing.T) {
	secret := []byte("secret")
	info := []byte("info")
	zero := make([]byte, sha256.Size)
	if !bytes.Equal(HKDF(secret, nil, info, 32), HKDF(secret, zero, info, 32)) {
		t.Fatal("nil salt must equal an all-zero hash-length salt")
	}
}

func TestDeriveSessionKeysDistinct(t *testing.T) {
	ks := DeriveSessionKeys([]byte("master secret"))
	if ks.KSSL == ks.K || ks.K == ks.KRand || ks.KSSL == ks.KRand {
		t.Fatal("session keys must be pairwise distinct")
	}
	ks2 := DeriveSessionKeys([]byte("master secret"))
	if ks != ks2 {
		t.Fatal("derivation must be deterministic")
	}
	ks3 := DeriveSessionKeys([]byte("other secret"))
	if ks.KSSL == ks3.KSSL {
		t.Fatal("different secrets must give different keys")
	}
}

func TestGCMRoundTrip(t *testing.T) {
	aead := NewGCM(Block{7})
	nonce := make([]byte, aead.NonceSize())
	pt := []byte("hello, middlebox")
	ct := aead.Seal(nil, nonce, pt, []byte("aad"))
	got, err := aead.Open(nil, nonce, ct, []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip = %q, want %q", got, pt)
	}
	if _, err := aead.Open(nil, nonce, ct, []byte("bad aad")); err == nil {
		t.Fatal("tampered AAD must fail to open")
	}
}

func TestMACDistinguishesMessages(t *testing.T) {
	k := Block{3}
	if MAC(k, Block{1}) == MAC(k, Block{2}) {
		t.Fatal("MAC must distinguish messages")
	}
	if MAC(Block{1}, Block{9}) == MAC(Block{2}, Block{9}) {
		t.Fatal("MAC must depend on the key")
	}
}

func TestLSB(t *testing.T) {
	var b Block
	if b.LSB() != 0 {
		t.Fatal("zero block LSB != 0")
	}
	b[BlockSize-1] = 1
	if b.LSB() != 1 {
		t.Fatal("LSB not read from the last byte's low bit")
	}
	b[BlockSize-1] = 0xFE
	if b.LSB() != 0 {
		t.Fatal("LSB must be the lowest bit only")
	}
}
