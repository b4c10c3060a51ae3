// Package bbcrypto provides the low-level cryptographic primitives shared by
// the rest of the BlindBox implementation: HKDF key derivation, an AES-CTR
// pseudorandom generator (used to derive the common randomness seeded by
// krand, §2.3 of the paper), the fixed-key AES hash used by the garbling
// scheme (JustGarble-style), and small helpers for AES block operations.
//
// Everything in this package is built on the Go standard library only.
package bbcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
)

// BlockSize is the AES block size in bytes. All BlindBox token keys and
// garbled-circuit wire labels are one AES block long.
const BlockSize = aes.BlockSize

// Block is a single 16-byte AES block. Wire labels, token keys and DPIEnc
// intermediate values are all Blocks.
type Block [BlockSize]byte

// XOR returns the bitwise XOR of b and o, computed on two 64-bit words.
func (b Block) XOR(o Block) Block {
	var r Block
	binary.LittleEndian.PutUint64(r[:8], binary.LittleEndian.Uint64(b[:8])^binary.LittleEndian.Uint64(o[:8]))
	binary.LittleEndian.PutUint64(r[8:], binary.LittleEndian.Uint64(b[8:])^binary.LittleEndian.Uint64(o[8:]))
	return r
}

// Double multiplies the block by x in GF(2^128) with the canonical
// polynomial x^128 + x^7 + x^2 + x + 1, the block read as one big-endian
// integer. It is used for the 2A ⊕ 4B tweakable hash of the garbling scheme.
func (b Block) Double() Block {
	var r Block
	hi, lo := double(b.words())
	r.setWords(hi, lo)
	return r
}

// double is Double on the block's big-endian words.
func double(hi, lo uint64) (uint64, uint64) {
	return hi<<1 | lo>>63, lo<<1 ^ (0x87 & -(hi >> 63))
}

// words returns the block's big-endian high and low words.
func (b *Block) words() (hi, lo uint64) {
	return binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
}

// Words returns the block as its big-endian high and low words, {hi, lo}:
// the form garbled-circuit wire labels take while a circuit is garbled or
// evaluated. XOR is word XOR, Double is double, and LSB is lo&1.
func (b Block) Words() [2]uint64 {
	hi, lo := b.words()
	return [2]uint64{hi, lo}
}

// FromWords is the inverse of Words.
func FromWords(w [2]uint64) Block {
	var b Block
	b.setWords(w[0], w[1])
	return b
}

// setWords overwrites the block with big-endian words hi and lo.
func (b *Block) setWords(hi, lo uint64) {
	binary.BigEndian.PutUint64(b[:8], hi)
	binary.BigEndian.PutUint64(b[8:], lo)
}

// LSB reports the least significant bit of the block (the last bit of the
// last byte), used as the point-and-permute colour bit.
func (b Block) LSB() int { return int(b[BlockSize-1] & 1) }

// must unwraps a constructor result, panicking on error. The constructors
// it wraps (aes.NewCipher, cipher.NewGCM with fixed 16-byte keys) fail only
// on programmer error, never on input data.
func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("bbcrypto: %v", err))
	}
	return v
}

// mustRead fills p from r, panicking on failure. Only used with
// crypto/rand.Reader, whose failure means the platform entropy pool is
// broken — unrecoverable for a cryptographic protocol.
func mustRead(r io.Reader, p []byte) {
	if _, err := io.ReadFull(r, p); err != nil {
		panic(fmt.Sprintf("bbcrypto: crypto/rand failed: %v", err))
	}
}

// RandomBlock returns a uniformly random block from crypto/rand.
func RandomBlock() Block {
	var b Block
	mustRead(rand.Reader, b[:])
	return b
}

// NewAES returns an AES cipher for the given 16-byte key. It panics on
// failure, which can only happen for invalid key sizes (a programming error).
func NewAES(key Block) cipher.Block {
	return must(aes.NewCipher(key[:]))
}

// EncryptBlock encrypts one block under key and returns the result. It
// expands key on every call; callers encrypting many blocks under one key
// keep a Schedule instead.
func EncryptBlock(key, pt Block) Block {
	var s Schedule
	s.Expand(&key)
	s.Encrypt(&pt, &pt)
	return pt
}

// FixedKeyHash is the JustGarble-style hash built from a single fixed-key
// AES permutation π: H(A, T) = π(K) ⊕ K where K = 2A ⊕ T.
// Because the key never changes, the AES key schedule is computed once and
// each hash costs exactly one AES block encryption — on the Schedule
// kernel, so where that is allocation-free a hash is too. The same
// permutation also drives CRHash4, the OT extension's row hash, under a
// key of its own.
type FixedKeyHash struct {
	pi Schedule
}

// NewFixedKeyHash creates a hash with the given fixed key. All parties in a
// garbling session must use the same fixed key; it need not be secret.
func NewFixedKeyHash(key Block) *FixedKeyHash {
	h := &FixedKeyHash{}
	h.pi.Expand(&key)
	return h
}

// Hash1 computes H(a, T) = π(K) ⊕ K with K = 2a ⊕ T, the hash of the
// half-gates construction, one block at a time.
func (h *FixedKeyHash) Hash1(a Block, tweak uint64) Block {
	k := a.Double()
	binary.BigEndian.PutUint64(k[8:], binary.BigEndian.Uint64(k[8:])^tweak)
	var out Block
	h.pi.Encrypt(&out, &k)
	return out.XOR(k)
}

// Hash1x4 is four Hash1s in one four-lane AES call, fed and read in words
// (see Words): dst[i] = Hash1(a[i], tweak[i]). dst and a may be the same
// array.
// It is the garbling kernel's only hash: a half gate's four at the garbler,
// two gates' two each at the evaluator.
func (h *FixedKeyHash) Hash1x4(dst, a *[4][2]uint64, tweak *[4]uint64) {
	// Every word is stored and loaded eight bytes at a time: a [2]uint64
	// copied whole is a 16-byte load of two 8-byte stores, which waits on
	// store forwarding.
	var k [4][2]uint64
	for i := range k {
		k[i][0], k[i][1] = double(a[i][0], a[i][1])
		k[i][1] ^= tweak[i]
	}
	h.pi.permuteXor4(dst, &k)
}

// permuteXor4Blocks is Schedule.permuteXor4 through Encrypt4 on Blocks: the
// portable form, and the amd64 form on a CPU without AES-NI.
func permuteXor4Blocks(s *Schedule, dst, k *[4][2]uint64) {
	var kb, pk [4]Block
	for i := range kb {
		kb[i].setWords(k[i][0], k[i][1])
	}
	Encrypt4(&[4]*Schedule{s, s, s, s}, &pk, &kb)
	for i := range dst {
		phi, plo := pk[i].words()
		dst[i][0], dst[i][1] = phi^k[i][0], plo^k[i][1]
	}
}

// CRHash4 is the tweakable correlation-robust hash of Guo, Katz, Wang and
// Yu (S&P 2020), H(x, j) = π(π(x) ⊕ j) ⊕ π(x), four inputs wide on two
// Encrypt4s: dst[i] = H(x[i], tweak[i]), the tweak folded into the low word
// as Hash1 folds its. dst and x may be the same array.
func (h *FixedKeyHash) CRHash4(dst, x *[4]Block, tweak *[4]uint64) {
	var px, k [4]Block
	Encrypt4(h.pi4(), &px, x)
	for i := range k {
		hi, lo := px[i].words()
		k[i].setWords(hi, lo^tweak[i])
	}
	Encrypt4(h.pi4(), dst, &k)
	for i := range dst {
		dst[i] = dst[i].XOR(px[i])
	}
}

// pi4 lists the permutation's schedule four times, the lanes of Encrypt4.
func (h *FixedKeyHash) pi4() *[4]*Schedule {
	return &[4]*Schedule{&h.pi, &h.pi, &h.pi, &h.pi}
}

// PRG is a deterministic pseudorandom generator implemented as AES-CTR with
// a zero IV. Both BlindBox endpoints seed a PRG with krand so they produce
// identical garbled circuits (§3.3: "use randomness based on krand").
type PRG struct {
	stream cipher.Stream
}

// NewPRG creates a PRG seeded with the 16-byte seed.
func NewPRG(seed Block) *PRG {
	var iv [BlockSize]byte
	return &PRG{stream: cipher.NewCTR(NewAES(seed), iv[:])}
}

// Read fills p with pseudorandom bytes. It never fails; the error is part of
// the io.Reader contract.
func (g *PRG) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	g.stream.XORKeyStream(p, p)
	return len(p), nil
}

// Block returns the next pseudorandom block from the generator.
func (g *PRG) Block() Block {
	var b Block
	g.stream.XORKeyStream(b[:], b[:])
	return b
}

var _ io.Reader = (*PRG)(nil)

// HKDF derives n bytes of key material from the input secret, salt and
// info label using HKDF-SHA256 (RFC 5869). It is used by the BlindBox HTTPS
// handshake to derive kSSL, k and krand from the master secret k0 (§2.3).
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

// DeriveBlock derives a single named 16-byte key from a secret via HKDF.
func DeriveBlock(secret []byte, label string) Block {
	var b Block
	copy(b[:], HKDF(secret, nil, []byte(label), BlockSize))
	return b
}

// SessionKeys holds the three keys every BlindBox HTTPS connection derives
// from the handshake master secret k0 (§2.3):
//
//   - KSSL encrypts the primary SSL stream,
//   - K keys the DPIEnc detection scheme, and
//   - KRand seeds the common randomness used for garbling.
type SessionKeys struct {
	KSSL  Block
	K     Block
	KRand Block
}

// DeriveSessionKeys expands the master secret k0 into the three session keys.
func DeriveSessionKeys(k0 []byte) SessionKeys {
	return SessionKeys{
		KSSL:  DeriveBlock(k0, "blindbox kssl"),
		K:     DeriveBlock(k0, "blindbox k"),
		KRand: DeriveBlock(k0, "blindbox krand"),
	}
}

// NewGCM returns an AES-GCM AEAD under the given key, used by the record
// layer of the primary SSL channel.
func NewGCM(key Block) cipher.AEAD {
	return must(cipher.NewGCM(NewAES(key)))
}

// MAC computes the single-block AES MAC used by the obfuscated rule
// encryption check: tag = AES_k(pad(m)) for messages of at most one block.
// For the fixed-length 16-byte inputs BlindBox feeds it (padded rule
// keywords), a single AES call is a secure PRF and hence a secure MAC.
func MAC(key Block, m Block) Block { return EncryptBlock(key, m) }
