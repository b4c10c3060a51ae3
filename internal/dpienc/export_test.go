package dpienc

import (
	"encoding/binary"
	"unsafe"

	"repro/internal/tokenize"
)

// ShrinkScheduleCaches caps every schedule cache of s at limit entries, so a
// test sees direct-mapped conflicts and cache growth within a few tokens.
func (s *Sender) ShrinkScheduleCaches(limit int) {
	s.cacheLimit = limit
	s.caches = nil
}

// StateSize reports the counter table's capacity in slots, the entries of
// the sequential schedule cache, and the bytes the table and the caches
// (scratch included) retain.
func (s *Sender) StateSize() (tableSlots, cachedSchedules, bytes int) {
	tableSlots = len(s.tab.slots)
	bytes = tableSlots * int(unsafe.Sizeof(counterSlot{}))
	for i := range s.caches {
		bytes += len(s.caches[i].entries)*int(unsafe.Sizeof(schedEntry{})) + int(unsafe.Sizeof(chunkScratch{}))
	}
	if len(s.caches) > 0 {
		cachedSchedules = len(s.caches[0].entries)
	}
	return tableSlots, cachedSchedules, bytes
}

// countOf reads a token's current occurrence counter (0 if it
// has none this epoch) without inserting it.
func (s *Sender) countOf(text [tokenize.TokenSize]byte) uint64 {
	t := &s.tab
	token := binary.LittleEndian.Uint64(text[:])
	mask := uint64(len(t.slots) - 1)
	for i := (token * t.mul) >> t.shift; t.slots[i].epoch == t.epoch; i = (i + 1) & mask {
		if t.slots[i].token == token {
			return uint64(t.slots[i].ct)
		}
	}
	return 0
}

// EncChunk is the number of tokens whose schedules are resolved together.
const EncChunk = encChunk

// ScheduleCacheLine is the line of an entries-line schedule cache that the
// token text maps to, for tests that build conflicts by hand.
func ScheduleCacheLine(text [tokenize.TokenSize]byte, entries int) int {
	return int((binary.LittleEndian.Uint64(text[:]) * cacheHashMul) >> hashShift(entries))
}
