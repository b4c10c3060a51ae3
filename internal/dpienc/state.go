// The per-token state of a Sender: the §3.2 counter table and the cache of
// per-token AES key schedules. Both are flat, value-typed arrays, so a
// first-seen token costs no heap object, a reset costs O(1), and what a
// connection retains is bounded by the distinct tokens of one reset
// interval rather than by everything it ever sent (DESIGN.md §5).

package dpienc

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/bbcrypto"
)

// hashShift is the right shift that maps a 64-bit multiplicative hash onto
// an array of n entries, n a power of two: 64 - log2(n). (For n = 1 that is
// a shift by 64, which Go defines as 0.)
func hashShift(n int) uint { return uint(64 - bits.Len(uint(n)-1)) }

// counterSlot is one entry of the counter table: 16 bytes, so four share a
// cache line and none straddles two — the lookup is a cache miss on any
// real working set, and it should be one.
type counterSlot struct {
	// token is the token text read as a little-endian integer: the full
	// 8-byte key, so equal slots mean equal tokens and there are no hash
	// collisions to reason about.
	//bb:secret
	token uint64
	// ct is the token's §3.2 occurrence counter, meaningful only while
	// epoch is the table's current epoch. The Sender resets before it can
	// reach 2^32 (maxCounter).
	ct uint32
	// epoch is the reset epoch that last touched the slot; 0 marks an
	// empty slot.
	epoch uint32
}

// counterTable is the §3.2 counter table: open addressing with linear
// probing over a power-of-two array. The paper restarts every counter at
// every reset, so a slot stamped with an older epoch *is* a zero counter,
// whichever token owned it: reset is epoch++, and an insert takes over the
// first stale slot on its probe chain in place. That is the whole eviction
// policy. Every slot goes stale at the same instant, so a key of the
// current epoch was inserted at the first stale-or-empty slot of its chain
// and no such slot precedes it: a lookup that meets one knows the token has
// no counter yet and may claim the slot without probing further. In steady
// state the table is never rebuilt; it grows only while one epoch's
// distinct tokens outgrow it, so that is what bounds it (DESIGN.md §5).
type counterTable struct {
	slots []counterSlot
	// shift maps a 64-bit hash to a slot index (hashShift).
	shift uint
	// mul is the odd multiplier of the multiply-shift hash, drawn at
	// random per table: the receiver's validator hashes tokens its peer
	// chose, and a fixed multiplier would let that peer aim every token at
	// one probe chain.
	mul uint64
	// live counts the slots of the current epoch: the load that probe
	// lengths depend on, since a probe ends at the first slot of any other.
	live  int
	epoch uint32
}

// minTableSlots is the capacity of a fresh table (1 KiB): a connection
// that never sends text should not pay for one that does.
const minTableSlots = 64

func newCounterTable(slots int) counterTable {
	seed := bbcrypto.RandomBlock()
	t := counterTable{mul: binary.LittleEndian.Uint64(seed[:8]) | 1, epoch: 1}
	t.alloc(slots)
	return t
}

// alloc installs an empty power-of-two slot array.
func (t *counterTable) alloc(slots int) {
	t.slots = make([]counterSlot, slots)
	t.shift = hashShift(slots)
}

// reset restarts every counter at zero: a new epoch, or — once in 2^32
// resets, when the epoch stamp would wrap onto old slots — an empty table.
func (t *counterTable) reset() {
	t.live = 0
	if t.epoch++; t.epoch == 0 {
		clear(t.slots)
		t.epoch = 1
	}
}

// slot returns the token's slot with a counter valid for the current
// epoch, inserting a zero counter if the token has none.
//
//bb:hotpath
func (t *counterTable) slot(token uint64) *counterSlot {
	mask := uint64(len(t.slots) - 1)
	for i := (token * t.mul) >> t.shift; ; i = (i + 1) & mask {
		sl := &t.slots[i]
		if sl.epoch == t.epoch {
			if sl.token == token {
				return sl
			}
			continue
		}
		// Stale or empty: the token has no counter this epoch, and this
		// slot is where one goes. Keeping live under ¾ keeps probes short
		// and guarantees every chain such a slot to end at.
		if 4*(t.live+1) > 3*len(t.slots) {
			t.grow()
			return t.slot(token)
		}
		t.live++
		*sl = counterSlot{token: token, epoch: t.epoch}
		return sl
	}
}

// grow doubles the table, carrying over the slots of the current epoch and
// nothing else.
func (t *counterTable) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	mask := uint64(len(t.slots) - 1)
	for i := range old {
		if old[i].epoch != t.epoch {
			continue
		}
		j := (old[i].token * t.mul) >> t.shift
		for t.slots[j].epoch != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = old[i]
	}
}

// schedEntry is one line of the schedule cache.
type schedEntry struct {
	//bb:secret
	token uint64
	// stamp is the number of the chunk that last used the line, whose
	// schedule stays put until that chunk is encrypted; 0 marks a line
	// never filled.
	stamp uint32
	sched bbcrypto.Schedule
}

// schedCache is a direct-mapped cache of the AES key schedules of
// AES_k(t), indexed by a hash of the token. It is a pure function cache
// (token → schedule), so a conflict or an eviction costs one re-derivation
// and is otherwise unobservable. It starts small and doubles while misses
// keep coming, up to limit entries: schedules are 176 bytes, and a working
// set of them that leaves the CPU cache costs more to fetch than to
// recompute (DESIGN.md §5 has the measurement).
//
// Schedules are resolved a chunk of tokens at a time (resolve), so that the
// chunk's misses can be derived four abreast and its tokens encrypted four
// abreast afterwards.
type schedCache struct {
	entries []schedEntry
	shift   uint
	// fills counts misses since the cache last grew.
	fills int
	limit int
	// chunk numbers the chunks resolved so far; see schedEntry.stamp.
	chunk uint32
	// scratch is resolve's working memory, 13 KiB. (A Sender creates its
	// cache when it first encrypts: one that never does pays for neither.)
	scratch *chunkScratch
}

const (
	minCachedSchedules = 16
	maxCachedSchedules = 4096
	// cacheHashMul is the 64-bit golden-ratio multiplier. Unlike the
	// counter table the cache needs no secret hash: a conflict costs a
	// bounded ~30 ns, which is what a first-seen token costs anyway.
	cacheHashMul = 0x9e3779b97f4a7c15

	// encChunk is how many tokens have their schedules resolved before any
	// is encrypted. It must be a multiple of the kernel's four lanes and
	// large enough that a chunk's misses — 30 % of delimiter tokens, 80 %
	// of window tokens — mostly fill whole groups of four; it is kept this
	// small because every line a chunk uses is pinned until the chunk is
	// encrypted (a conflicting miss is derived into scratch and not
	// cached), and because the scratch is per cache: 64 pointers, keys and
	// spilled schedules are 13 KiB and stay in L1 beside the lines they
	// point at.
	encChunk = 64
)

// chunkScratch is the working memory of one resolve call.
type chunkScratch struct {
	// sched[i] is the schedule of the chunk's i-th token: a cache line's,
	// or one of spill's when the line was taken.
	sched [encChunk]*bbcrypto.Schedule
	// The chunk's misses, in order: keys[j] is the padded token and then
	// AES_k of it, dst[j] is where its schedule goes.
	//bb:secret
	keys  [encChunk]TokenKey
	dst   [encChunk]*bbcrypto.Schedule
	spill [encChunk]bbcrypto.Schedule
}

func newSchedCache(limit int) *schedCache {
	c := &schedCache{limit: limit, scratch: new(chunkScratch)}
	c.alloc(min(minCachedSchedules, limit))
	return c
}

func (c *schedCache) alloc(entries int) {
	c.entries = make([]schedEntry, entries)
	c.shift = hashShift(entries)
	c.fills = 0
}

func (c *schedCache) index(token uint64) uint64 { return (token * cacheHashMul) >> c.shift }

// resolve returns the key schedules of AES_k(token) for the tokens of one
// chunk (at most encChunk of them), deriving the missing ones under the
// session-key schedule ks, four at a time while there are four. The
// pointers are valid until the next call.
//
// A line that a token of the chunk hit, or was filled for, carries the
// chunk's number from then on, and a later miss that maps to it must not
// overwrite it before the chunk is encrypted: that miss is derived into
// scratch and stays uncached. A miss on any other line claims it at once —
// token and stamp first, schedule when the misses are derived — so that a
// repeat of the token inside the chunk is a hit.
//
//bb:hotpath
func (c *schedCache) resolve(ks *bbcrypto.Schedule, chunk []TokenAssignment) *[encChunk]*bbcrypto.Schedule {
	// Growing moves every line, so it happens between chunks only.
	if c.fills >= len(c.entries) && len(c.entries) < c.limit {
		c.grow()
	}
	if c.chunk++; c.chunk == 0 {
		// The stamp wrapped: forget everything rather than let a line of
		// 2^32 chunks ago pass for one of this chunk's.
		clear(c.entries)
		c.chunk = 1
	}
	sc := c.scratch
	misses, spilled := 0, 0
	for i := range chunk {
		token := chunk[i].token
		e := &c.entries[c.index(token)]
		if e.token == token && e.stamp != 0 {
			e.stamp = c.chunk
			sc.sched[i] = &e.sched
			continue
		}
		dst := &e.sched
		if e.stamp == c.chunk {
			dst = &sc.spill[spilled]
			spilled++
		} else {
			e.token, e.stamp = token, c.chunk
		}
		sc.sched[i], sc.dst[misses] = dst, dst
		sc.keys[misses] = TokenKey{}
		binary.LittleEndian.PutUint64(sc.keys[misses][:8], token)
		misses++
	}
	if misses == 0 {
		return &sc.sched
	}
	c.fills += misses
	j := 0
	if misses >= 4 { // fewer must not pay for setting the lanes up
		k4 := [4]*bbcrypto.Schedule{ks, ks, ks, ks}
		for ; j+4 <= misses; j += 4 {
			keys := (*[4]TokenKey)(sc.keys[j : j+4])
			bbcrypto.Encrypt4(&k4, keys, keys)
			bbcrypto.Expand4((*[4]*bbcrypto.Schedule)(sc.dst[j:j+4]), keys)
		}
	}
	for ; j < misses; j++ {
		ks.Encrypt(&sc.keys[j], &sc.keys[j])
		sc.dst[j].Expand(&sc.keys[j])
	}
	return &sc.sched
}

// grow doubles the cache, carrying the cached schedules over: each old
// entry maps to one of two new indexes, so none is lost.
func (c *schedCache) grow() {
	old := c.entries
	c.alloc(2 * len(old))
	for i := range old {
		if old[i].stamp != 0 {
			c.entries[c.index(old[i].token)] = old[i]
		}
	}
	// Do not keep the old array alive through last chunk's pointers.
	clear(c.scratch.sched[:])
	clear(c.scratch.dst[:])
}
