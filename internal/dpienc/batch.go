// Batched DPIEnc encryption. The §3.2 counter table makes token
// *assignment* (which salt encrypts which occurrence) inherently
// sequential, but once a token's salt is fixed, the AES work is independent
// of every other token. This file splits encryption into those two steps so
// batches amortize per-token call overhead: the table lookups of the first
// loop are independent loads that overlap, which a loop with AES calls in it
// does not let them do, and the second loop runs the AES kernel four tokens
// abreast.

package dpienc

import (
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/bbcrypto"
	"repro/internal/tokenize"
)

// TokenAssignment is the counter-table outcome for one token: the token and
// the salt this occurrence of it must be encrypted under. Assignments are
// produced in stream order by AssignTokens; after that, encrypting them is
// order-independent.
type TokenAssignment struct {
	//bb:secret
	token  uint64
	salt   uint64
	offset int
}

// AssignTokens advances the §3.2 counter table over toks (which must be in
// stream order) and appends one assignment per token to dst, returning the
// extended slice. This is the only step of token encryption whose result
// depends on what came before; the returned assignments may then be
// encrypted in any order via EncryptAssigned.
//
// Allocation contract: 0 allocs/op steady-state. Per call it allocates
// only when dst must grow (amortized to the largest batch seen) or when the
// counter table doubles, which it stops doing once it holds one reset
// interval's distinct tokens.
//
//bb:hotpath
func (s *Sender) AssignTokens(toks []tokenize.Token, dst []TokenAssignment) []TokenAssignment {
	stride := s.saltStride()
	n := len(dst)
	dst = slices.Grow(dst, len(toks))[:n+len(toks)]
	for i := range toks {
		t := &toks[i]
		token := binary.LittleEndian.Uint64(t.Text[:])
		sl := s.tab.slot(token)
		ct := uint64(sl.ct)
		sl.ct = uint32(ct + stride)
		if ct+stride > s.maxCt {
			s.maxCt = ct + stride
		}
		dst[n+i] = TokenAssignment{token: token, salt: s.salt0 + ct, offset: t.Offset}
	}
	if s.maxCt > math.MaxUint32 {
		// A 32-bit counter wrapped inside this batch. AccountBytes resets
		// at 2^31, so this takes 2^31 more occurrences of one token
		// without a call to it; nothing has been emitted yet.
		panic("dpienc: token counter overflow: AccountBytes not called for 2^31 occurrences of one token")
	}
	return dst
}

// EncryptAssigned encrypts assigned[i] into out[i] for every assignment
// (out must be at least as long as assigned). Output order is exactly
// assignment order. It goes through the Sender's schedule cache, so calls on
// one Sender must not overlap.
//
// It works a chunk of encChunk tokens at a time: the cache resolves the
// chunk's schedules, then the tokens are encrypted four abreast, each lane
// under its own schedule (encryptGroups). Fewer than four left over take the
// one-block kernel here, so a batch of one costs what a single encryption
// costs.
//
// Allocation contract: 0 allocs/op once the schedule cache has reached its
// size (it doubles at most eight times in a Sender's life).
//
//bb:hotpath
func (s *Sender) EncryptAssigned(assigned []TokenAssignment, out []EncryptedToken) {
	if len(assigned) == 0 {
		// A record of binary payload comes through here with no tokens, and
		// must not make the Sender create a cache it may never need.
		return
	}
	if s.cache == nil {
		s.cache = newSchedCache(s.cacheLimit)
	}
	c := s.cache
	protoIII := s.protocol == ProtocolIII
	out = out[:len(assigned)]
	for len(assigned) > 0 {
		n := min(len(assigned), encChunk)
		scheds := c.resolve(&s.kSched, assigned[:n])
		i := 0
		if n >= 4 {
			i = n &^ 3
			s.encryptGroups(scheds, assigned[:i], out[:i])
		}
		for ; i < n; i++ {
			a, o, sched := &assigned[i], &out[i], scheds[i]
			var pt, ct bbcrypto.Block
			o.Offset = a.offset
			binary.BigEndian.PutUint64(pt[8:], a.salt)
			sched.Encrypt(&ct, &pt)
			copy(o.C1[:], ct[:CiphertextSize])
			o.C2 = bbcrypto.Block{}
			if protoIII {
				binary.BigEndian.PutUint64(pt[8:], a.salt+1)
				sched.Encrypt(&ct, &pt)
				o.C2 = ct.XOR(s.kSSL)
			}
		}
		assigned, out = assigned[n:], out[n:]
	}
}

// encryptGroups encrypts assigned, a multiple of four tokens, into out, four
// at a time: token i under *scheds[i].
//
//bb:hotpath
func (s *Sender) encryptGroups(scheds *[encChunk]*bbcrypto.Schedule, assigned []TokenAssignment, out []EncryptedToken) {
	protoIII := s.protocol == ProtocolIII
	kSSL0, kSSL1 := binary.LittleEndian.Uint64(s.kSSL[:8]), binary.LittleEndian.Uint64(s.kSSL[8:])
	var pt, ct [4]bbcrypto.Block
	for i := 0; i+4 <= len(assigned); i += 4 {
		a, o := assigned[i:i+4], out[i:i+4]
		sched4 := (*[4]*bbcrypto.Schedule)(scheds[i : i+4])
		for j := range a {
			binary.BigEndian.PutUint64(pt[j][8:], a[j].salt)
		}
		bbcrypto.Encrypt4(sched4, &ct, &pt)
		for j := range o {
			o[j].Offset = a[j].offset
			copy(o[j].C1[:], ct[j][:CiphertextSize])
			o[j].C2 = bbcrypto.Block{}
		}
		if protoIII {
			for j := range a {
				binary.BigEndian.PutUint64(pt[j][8:], a[j].salt+1)
			}
			bbcrypto.Encrypt4(sched4, &ct, &pt)
			for j := range o {
				// XORed into place half by half: a Block returned by value
				// is stored in halves and then copied whole, and the copy
				// waits for both stores.
				binary.LittleEndian.PutUint64(o[j].C2[:8], binary.LittleEndian.Uint64(ct[j][:8])^kSSL0)
				binary.LittleEndian.PutUint64(o[j].C2[8:], binary.LittleEndian.Uint64(ct[j][8:])^kSSL1)
			}
		}
	}
}

// EncryptTokensInto encrypts a batch of tokens in order (AssignTokens, then
// EncryptAssigned), reusing dst's backing array when it is large enough; a
// nil dst makes it allocate the result.
//
// Allocation contract: 0 allocs/op steady-state — the assignment scratch
// lives on the Sender and dst reallocates only on growth; first-seen
// tokens cost as documented on AssignTokens and EncryptAssigned.
func (s *Sender) EncryptTokensInto(dst []EncryptedToken, toks []tokenize.Token) []EncryptedToken {
	s.scratch = s.AssignTokens(toks, s.scratch[:0])
	dst = GrowTokenBuf(dst, len(toks))
	s.EncryptAssigned(s.scratch, dst)
	return dst
}

// GrowTokenBuf resizes buf to n elements, reallocating only when the
// capacity is insufficient.
func GrowTokenBuf(buf []EncryptedToken, n int) []EncryptedToken {
	if cap(buf) < n {
		return make([]EncryptedToken, n)
	}
	return buf[:n]
}
