// Package dpienc implements the DPIEnc encryption scheme of §3.1 of the
// BlindBox paper, together with the counter-based salt management that
// BlindBox Detect (§3.2) relies on and the paired-ciphertext extension of
// Protocol III (§5).
//
// The encryption of a token t is
//
//	salt, AES_{AES_k(t)}(salt) mod RS
//
// where RS = 2^40, yielding 5-byte ciphertexts. The "random function" H of
// the scheme is instantiated with AES keyed by AES_k(t), a value the
// middlebox knows only for tokens equal to rule keywords — this makes the
// whole scheme run at AES-NI speed while retaining the security of
// randomized encryption.
//
// Salts are never transmitted per-token: the sender and middlebox both
// maintain counter tables so that the i-th occurrence of a token t is
// implicitly encrypted under salt0+i (Protocol I/II) or salt0+2i / salt0+2i+1
// (Protocol III c1/c2), and the table is reset every ResetInterval bytes by
// announcing a fresh salt0.
package dpienc

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bbcrypto"
	"repro/internal/tokenize"
)

// CiphertextSize is the size of one DPIEnc ciphertext in bytes: the paper
// reduces ciphertexts mod RS = 2^40 to 5 bytes, so one encrypted token per
// traffic byte costs 5x bandwidth (§3).
const CiphertextSize = 5

// ResetInterval is the default P: the sender resets its counter table every
// P bytes of traffic and announces a fresh salt0 (§3.2).
const ResetInterval = 1 << 20

// Ciphertext is a single DPIEnc ciphertext: AES_{AES_k(t)}(salt) mod RS.
type Ciphertext [CiphertextSize]byte

// Uint64 returns the ciphertext as an integer in [0, RS), convenient as a
// search-tree key.
func (c Ciphertext) Uint64() uint64 {
	return uint64(c[0])<<32 | uint64(c[1])<<24 | uint64(c[2])<<16 |
		uint64(c[3])<<8 | uint64(c[4])
}

// CiphertextFromUint64 is the inverse of Uint64.
func CiphertextFromUint64(v uint64) Ciphertext {
	return Ciphertext{byte(v >> 32), byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// TokenKey is AES_k(t) for a token t: the per-token AES key under which
// salts are encrypted. The middlebox learns TokenKeys only for rule
// keywords (via obfuscated rule encryption), never the session key k.
type TokenKey = bbcrypto.Block

// ComputeTokenKey computes AES_k(t) with the token right-padded to one AES
// block. Only the endpoints, which hold k, can call this. It expands k on
// every call; a Sender keeps k's schedule and never goes through here.
func ComputeTokenKey(k bbcrypto.Block, t [tokenize.TokenSize]byte) TokenKey {
	var block bbcrypto.Block
	copy(block[:], t[:])
	return bbcrypto.EncryptBlock(k, block)
}

// Encrypt computes Enc(salt, t) = AES_{tk}(salt) mod RS for a precomputed
// token key tk. Both the sender (who derives tk from k) and the middlebox
// (who got tk from rule preparation) call this.
func Encrypt(tk TokenKey, salt uint64) Ciphertext {
	full := FullBlock(tk, salt)
	var out Ciphertext
	copy(out[:], full[:CiphertextSize])
	return out
}

// FullBlock computes the un-truncated AES_{tk}(salt) block. Protocol III
// embeds kSSL as Enc*(salt, t) ⊕ kSSL using the full block (§5), since the
// SSL key is 16 bytes.
func FullBlock(tk TokenKey, salt uint64) bbcrypto.Block {
	var pt bbcrypto.Block
	binary.BigEndian.PutUint64(pt[8:], salt)
	return bbcrypto.EncryptBlock(tk, pt)
}

// Protocol selects between the exact-match protocols (I and II share an
// encryption format) and Protocol III, which sends ciphertext pairs.
type Protocol int

const (
	// ProtocolI is basic single-keyword detection (§3).
	ProtocolI Protocol = 1
	// ProtocolII adds multi-keyword rules with offset information (§4).
	// Its token encryption is identical to Protocol I.
	ProtocolII Protocol = 2
	// ProtocolIII additionally embeds kSSL in a second ciphertext so the
	// middlebox can decrypt flows with probable cause (§5).
	ProtocolIII Protocol = 3
)

// String renders the protocol's paper numeral (I, II, III).
func (p Protocol) String() string {
	switch p {
	case ProtocolI:
		return "I"
	case ProtocolII:
		return "II"
	case ProtocolIII:
		return "III"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// EncryptedToken is the wire form of one encrypted token.
type EncryptedToken struct {
	// C1 is the detection ciphertext Enc_k(salt, t).
	C1 Ciphertext
	// C2 is Enc*_k(salt+1, t) ⊕ kSSL, present only under Protocol III.
	C2 bbcrypto.Block
	// Offset is the token's byte offset in the stream (carried in the
	// clear; BlindBox reveals token offsets by design, §3.5).
	Offset int
}

// Sender encrypts the token stream of one connection direction. It owns the
// counter table of §3.2: the i-th occurrence of a token is encrypted with
// salt0+i so equal tokens never share a salt, without transmitting salts.
type Sender struct {
	// kSched is the session detection key k, expanded once: every AES_k(t)
	// is derived under it.
	//bb:secret
	kSched bbcrypto.Schedule
	//bb:secret
	kSSL     bbcrypto.Block
	protocol Protocol

	salt0 uint64
	maxCt uint64

	// tab is the §3.2 counter table; cache holds the key schedules of
	// AES_k(t) (both in state.go). The cache is created by the first
	// encryption, with room for at most cacheLimit schedules
	// (maxCachedSchedules outside tests).
	tab        counterTable
	cache      *schedCache
	cacheLimit int

	// scratch is the reusable assignment buffer of the batch path
	// (EncryptTokensInto): batches allocate nothing in steady state.
	scratch []TokenAssignment

	bytesSinceReset int
	resetInterval   int
}

// NewSender creates a Sender for session detection key k. kSSL is required
// only under Protocol III (it is embedded in C2); pass the session SSL key.
func NewSender(k, kSSL bbcrypto.Block, protocol Protocol, salt0 uint64) *Sender {
	s := &Sender{
		kSSL:          kSSL,
		protocol:      protocol,
		salt0:         salt0,
		tab:           newCounterTable(minTableSlots),
		cacheLimit:    maxCachedSchedules,
		resetInterval: ResetInterval,
	}
	s.kSched.Expand(&k)
	return s
}

// SetResetInterval overrides the counter-table reset interval P (mainly for
// tests and benchmarks).
func (s *Sender) SetResetInterval(p int) { s.resetInterval = p }

// Salt0 returns the current initial salt, which the sender announces to the
// middlebox before sending encrypted tokens.
func (s *Sender) Salt0() uint64 { return s.salt0 }

// saltStride is how far apart consecutive salts of one token are: Protocol
// III uses even salts for C1 and odd salts for C2 (§5), so occurrences
// advance by 2.
func (s *Sender) saltStride() uint64 {
	if s.protocol == ProtocolIII {
		return 2
	}
	return 1
}

// EncryptToken encrypts one token. The caller must process tokens in stream
// order for the counter tables at sender and middlebox to stay in sync.
func (s *Sender) EncryptToken(t tokenize.Token) EncryptedToken {
	var (
		asg [1]TokenAssignment
		out [1]EncryptedToken
	)
	s.EncryptAssigned(s.AssignTokens([]tokenize.Token{t}, asg[:0]), out[:])
	// Field by field: each load then matches one store just made, where a
	// copy of the whole struct waits for all of them to reach the cache.
	return EncryptedToken{C1: out[0].C1, C2: out[0].C2, Offset: out[0].Offset}
}

// maxCounter is the counter value at which AccountBytes resets whatever the
// byte count: the table keeps 32-bit counters, and a reset interval of
// gigabytes (SetResetInterval accepts any P) must not let one wrap onto
// salts already used. The default P = 1 MiB keeps counters below 2^21.
const maxCounter = 1 << 31

// AccountBytes informs the sender that n bytes of traffic were processed.
// When the total since the last reset exceeds the reset interval P (or a
// counter has reached maxCounter), the counter table is cleared and a fresh
// salt0 is chosen (salt0 + max ct + 1, §3.2). It returns the
// new salt0 and true if a reset occurred; the caller must announce the new
// salt0 to the middlebox before sending more tokens.
func (s *Sender) AccountBytes(n int) (uint64, bool) {
	s.bytesSinceReset += n
	if s.bytesSinceReset < s.resetInterval && s.maxCt < maxCounter {
		return 0, false
	}
	s.bytesSinceReset = 0
	s.salt0 += s.maxCt + 1
	s.maxCt = 0
	s.tab.reset()
	return s.salt0, true
}

// Reset forces a counter-table reset (used when the peer announces one).
func (s *Sender) Reset(newSalt0 uint64) {
	s.salt0 = newSalt0
	s.maxCt = 0
	s.bytesSinceReset = 0
	s.tab.reset()
}

// RecoverSSLKey inverts the Protocol III embedding for a matched keyword:
// given the token key of the matched rule keyword and the salt the C1
// ciphertext was produced under, it returns kSSL = Enc*(salt+1, r) ⊕ C2.
// Only a middlebox that holds AES_k(r) for a keyword actually present in
// the traffic can compute this — that is the probable-cause guarantee.
func RecoverSSLKey(tk TokenKey, c1Salt uint64, c2 bbcrypto.Block) bbcrypto.Block {
	return FullBlock(tk, c1Salt+1).XOR(c2)
}
