// The per-token state of a Sender: the §3.2 counter table and the cache of
// per-token AES key schedules. Both are flat, value-typed arrays, so a
// first-seen token costs no heap object, a reset costs O(1), and what a
// connection retains is bounded by the distinct tokens of two reset
// intervals rather than by everything it ever sent (DESIGN.md §5).

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
// every reset, so a slot stamped with an older epoch *is* a zero counter:
// reset is epoch++, and dropping such a slot changes no output. That is the
// whole eviction policy — when an insert would fill the table past ¾, it is
// rebuilt keeping only the slots of the current and the previous epoch
// (the previous one only so that the capacity tracks the working set
// instead of collapsing right after a reset).
type counterTable struct {
	slots []counterSlot
	// shift maps a 64-bit hash to a slot index (hashShift).
	shift uint
	// mul is the odd multiplier of the multiply-shift hash, drawn at
	// random per table: the receiver's validator hashes tokens its peer
	// chose, and a fixed multiplier would let that peer aim every token at
	// one probe chain.
	mul uint64
	// used counts non-empty slots, stale ones included.
	used  int
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
	t.used = 0
}

// reset restarts every counter at zero: a new epoch, or — once in 2^32
// resets, when the epoch stamp would wrap onto old slots — an empty table.
func (t *counterTable) reset() {
	if t.epoch++; t.epoch == 0 {
		clear(t.slots)
		t.used, t.epoch = 0, 1
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
		if sl.epoch == 0 {
			if 4*(t.used+1) > 3*len(t.slots) {
				t.rebuild()
				return t.slot(token)
			}
			t.used++
			sl.token, sl.epoch = token, t.epoch
			return sl
		}
		if sl.token == token {
			if sl.epoch != t.epoch {
				sl.epoch, sl.ct = t.epoch, 0
			}
			return sl
		}
	}
}

// rebuild re-inserts the slots of the current and previous epoch into a
// fresh array sized to hold them at most half full, which both grows a
// table that is filling up and sheds the tokens of older epochs.
func (t *counterTable) rebuild() {
	old := t.slots
	live := func(sl *counterSlot) bool { return sl.epoch != 0 && t.epoch-sl.epoch <= 1 }
	kept := 0
	for i := range old {
		if live(&old[i]) {
			kept++
		}
	}
	slots := minTableSlots
	for slots < 2*(kept+1) {
		slots *= 2
	}
	t.alloc(slots)
	mask := uint64(slots - 1)
	for i := range old {
		if !live(&old[i]) {
			continue
		}
		j := (old[i].token * t.mul) >> t.shift
		for t.slots[j].epoch != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = old[i]
		t.used++
	}
}

// schedEntry is one line of the schedule cache.
type schedEntry struct {
	//bb:secret
	token uint64
	valid bool
	sched bbcrypto.Schedule
}

// schedCache is a direct-mapped cache of the AES key schedules of
// AES_k(t), indexed by a hash of the token. It is a pure function cache
// (token → schedule), so a conflict or an eviction costs one re-derivation
// and is otherwise unobservable. It starts small and doubles while misses
// keep coming, up to limit entries: schedules are 176 bytes, and a working
// set of them that leaves the CPU cache costs more to fetch than to
// recompute (DESIGN.md §5 has the measurement).
type schedCache struct {
	entries []schedEntry
	shift   uint
	// fills counts misses since the cache last grew.
	fills int
	limit int
}

const (
	minCachedSchedules = 16
	maxCachedSchedules = 4096
	// cacheHashMul is the 64-bit golden-ratio multiplier. Unlike the
	// counter table the cache needs no secret hash: a conflict costs a
	// bounded ~60 ns, which is what a first-seen token costs anyway.
	cacheHashMul = 0x9e3779b97f4a7c15
)

func newSchedCache(limit int) schedCache {
	c := schedCache{limit: limit}
	c.alloc(min(minCachedSchedules, limit))
	return c
}

func (c *schedCache) alloc(entries int) {
	c.entries = make([]schedEntry, entries)
	c.shift = hashShift(entries)
	c.fills = 0
}

func (c *schedCache) index(token uint64) uint64 { return (token * cacheHashMul) >> c.shift }

// schedule returns the key schedule of AES_k(token), deriving it under the
// session-key schedule ks on a miss. The pointer is valid until the next
// call.
//
//bb:hotpath
func (c *schedCache) schedule(ks *bbcrypto.Schedule, token uint64) *bbcrypto.Schedule {
	e := &c.entries[c.index(token)]
	if e.token == token && e.valid {
		return &e.sched
	}
	if c.fills >= len(c.entries) && len(c.entries) < c.limit {
		c.grow()
		e = &c.entries[c.index(token)]
	}
	c.fills++
	var tk TokenKey
	binary.LittleEndian.PutUint64(tk[:8], token)
	ks.Encrypt(&tk, &tk)
	e.sched.Expand(&tk)
	e.token, e.valid = token, true
	return &e.sched
}

// grow doubles the cache, carrying the cached schedules over: each old
// entry maps to one of two new indexes, so none is lost.
func (c *schedCache) grow() {
	old := c.entries
	c.alloc(2 * len(old))
	for i := range old {
		if old[i].valid {
			c.entries[c.index(old[i].token)] = old[i]
		}
	}
}
