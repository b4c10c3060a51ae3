// Batched and parallel DPIEnc encryption. The §3.2 counter table makes
// token *assignment* (which salt encrypts which occurrence) inherently
// sequential, but once a token's salt is fixed, the AES work is independent
// of every other token. This file splits encryption into those two steps so
// batches amortize per-token call overhead and the AES step can fan out
// across cores while preserving exact stream order. The split also pays on
// one core: the table lookups of the first loop are independent loads that
// overlap, which a loop with AES calls in it does not let them do.

package dpienc

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

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
	s.tokensC.Add(uint64(len(toks)))
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
		//lint:ignore todo-panic encrypting gigabytes without AccountBytes is a caller programming error, never reachable from wire data (Conn accounts every record)
		panic("dpienc: token counter overflow: AccountBytes not called for 2^31 occurrences of one token")
	}
	return dst
}

// EncryptAssigned encrypts assigned[i] into out[i] for every assignment
// (out must be at least as long as assigned). Output order is exactly
// assignment order. It goes through the Sender's schedule cache, so calls on
// one Sender must not overlap; EncryptAssignedParallel is the concurrent
// form.
//
// Allocation contract: 0 allocs/op once the schedule cache has reached its
// size (it doubles at most eight times in a Sender's life).
func (s *Sender) EncryptAssigned(assigned []TokenAssignment, out []EncryptedToken) {
	if len(assigned) == 0 {
		// A record of binary payload comes through here with no tokens, and
		// must not make the Sender create a cache it may never need.
		return
	}
	s.encryptAssigned(&s.workerCaches(1)[0], assigned, out)
}

// workerCaches returns the first n schedule caches, creating the missing
// ones.
func (s *Sender) workerCaches(n int) []schedCache {
	for len(s.caches) < n {
		s.caches = append(s.caches, newSchedCache(s.cacheLimit))
	}
	return s.caches[:n]
}

// encryptAssigned is EncryptAssigned through schedule cache c. It reads
// only immutable Sender state (protocol, kSSL, k's schedule), so calls with
// distinct caches and disjoint (assigned, out) ranges may run concurrently.
//
// It works a chunk of encChunk tokens at a time: the cache resolves the
// chunk's schedules, then the tokens are encrypted four abreast, each lane
// under its own schedule (encryptGroups). Fewer than four left over take the
// one-block kernel here, so a batch of one costs what a single encryption
// costs.
//
//bb:hotpath
func (s *Sender) encryptAssigned(c *schedCache, assigned []TokenAssignment, out []EncryptedToken) {
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

// minParallelBatch is the default batch size below which fanning
// encryption out to worker goroutines costs more than it saves. SetFanOut
// replaces it with a per-host measured break-even (internal/tuning).
const minParallelBatch = 128

// SetFanOut installs the fan-out decision EncryptTokensInto and
// EncryptAssignedAuto apply: batches of at least minBatch tokens split
// their stateless AES step across `workers` goroutines, smaller batches
// (and everything when workers <= 1) run sequentially. workers <= 0 is
// normalized to 1 and minBatch <= 0 to the built-in default; callers
// normally pass a tuning.Tuning's EncryptWorkers/EncryptMinBatch rather
// than inventing values.
func (s *Sender) SetFanOut(workers, minBatch int) {
	if workers <= 0 {
		workers = 1
	}
	if minBatch <= 0 {
		minBatch = minParallelBatch
	}
	s.workers = workers
	s.minParBatch = minBatch
}

// FanOut reports the sender's current fan-out decision (workers and the
// minimum batch size that engages them).
func (s *Sender) FanOut() (workers, minBatch int) {
	return s.workers, s.minParBatch
}

// EncryptAssignedAuto is EncryptAssigned routed through the SetFanOut
// decision: the AES step fans out only when the configured workers and
// batch size say the goroutine handoffs will pay for themselves. Output
// order and contents are byte-identical to EncryptAssigned either way.
//
// Allocation contract: 0 allocs/op steady-state on the sequential path; the
// parallel path adds one goroutine spawn per worker per batch, already
// priced into the minBatch break-even.
func (s *Sender) EncryptAssignedAuto(assigned []TokenAssignment, out []EncryptedToken) {
	if s.workers > 1 && len(assigned) >= s.minParBatch {
		s.EncryptAssignedParallel(assigned, out, s.workers)
		return
	}
	s.EncryptAssigned(assigned, out)
}

// EncryptAssignedParallel is EncryptAssigned with the AES work split across
// up to `workers` goroutines. Each worker owns a contiguous range of the
// batch and its own schedule cache, so out keeps exact stream order and is
// byte-identical to the sequential path; small batches fall back to it
// outright. Like EncryptAssigned, calls on one Sender must not overlap.
//
// Allocation contract: one goroutine spawn + closure per worker per call;
// no per-token allocations. Prefer EncryptAssignedAuto, which engages this
// path only past the measured break-even batch size.
func (s *Sender) EncryptAssignedParallel(assigned []TokenAssignment, out []EncryptedToken, workers int) {
	if workers > len(assigned)/minParallelBatch {
		workers = len(assigned) / minParallelBatch
	}
	if workers <= 1 {
		s.EncryptAssigned(assigned, out)
		return
	}
	chunk := (len(assigned) + workers - 1) / workers
	caches := s.workerCaches(workers)
	var wg sync.WaitGroup
	for w, start := 0, 0; start < len(assigned); w, start = w+1, start+chunk {
		end := min(start+chunk, len(assigned))
		wg.Add(1)
		go func(c *schedCache, a []TokenAssignment, o []EncryptedToken) {
			defer wg.Done()
			s.encryptAssigned(c, a, o)
		}(&caches[w], assigned[start:end], out[start:end])
	}
	wg.Wait()
}

// EncryptTokensInto encrypts a batch of tokens in order, reusing dst's
// backing array when it is large enough, and applying the SetFanOut
// decision to the stateless AES step (the default decision is fully
// sequential). The counter-table assignment is always sequential, so the
// produced stream is byte-identical whichever way the AES step runs.
//
// Allocation contract: 0 allocs/op steady-state — the assignment scratch
// lives on the Sender and dst reallocates only on growth; first-seen
// tokens and engaged fan-out cost as documented on AssignTokens and
// EncryptAssignedAuto.
func (s *Sender) EncryptTokensInto(dst []EncryptedToken, toks []tokenize.Token) []EncryptedToken {
	s.scratch = s.AssignTokens(toks, s.scratch[:0])
	dst = GrowTokenBuf(dst, len(toks))
	s.EncryptAssignedAuto(s.scratch, dst)
	return dst
}

// EncryptTokensParallelInto is EncryptTokensInto with the stateless AES
// step fanned out across up to `workers` goroutines, ignoring the SetFanOut
// decision. The counter-table assignment stays sequential, so the produced
// stream is byte-identical to the sequential path.
//
// Allocation contract: as EncryptAssignedParallel — one goroutine spawn
// per worker per batch, no per-token allocations.
func (s *Sender) EncryptTokensParallelInto(dst []EncryptedToken, toks []tokenize.Token, workers int) []EncryptedToken {
	s.scratch = s.AssignTokens(toks, s.scratch[:0])
	dst = GrowTokenBuf(dst, len(toks))
	s.EncryptAssignedParallel(s.scratch, dst, workers)
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

// tokenBufPool recycles encrypted-token batch buffers across connections:
// the sender hot path produces one ciphertext slice per data record, and at
// millions of flows those allocations dominate the encryption cost.
var tokenBufPool = sync.Pool{
	New: func() any { return make([]EncryptedToken, 0, 512) },
}

// GetTokenBuf returns a reusable encrypted-token buffer of length zero.
// Return it with PutTokenBuf once the batch has been marshaled or consumed;
// the contents must not be retained afterwards.
func GetTokenBuf() []EncryptedToken {
	return tokenBufPool.Get().([]EncryptedToken)[:0]
}

// PutTokenBuf recycles a buffer obtained from GetTokenBuf (growing it in
// the meantime is fine — the grown backing array is what gets pooled).
func PutTokenBuf(buf []EncryptedToken) {
	tokenBufPool.Put(buf[:0])
}
