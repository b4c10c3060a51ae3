package dpienc

import (
	"encoding/binary"
	"unsafe"

	"repro/internal/tokenize"
)

// ShrinkScheduleCache caps the schedule cache of s at limit entries, so a
// test sees direct-mapped conflicts and cache growth within a few tokens.
func (s *Sender) ShrinkScheduleCache(limit int) {
	s.cacheLimit = limit
	s.cache = nil
}

// StateSize reports the counter table's capacity in slots, the entries of
// the schedule cache, and the bytes the table and the cache (scratch
// included) retain.
func (s *Sender) StateSize() (tableSlots, cachedSchedules, bytes int) {
	tableSlots = len(s.tab.slots)
	bytes = tableSlots * int(unsafe.Sizeof(counterSlot{}))
	if s.cache != nil {
		cachedSchedules = len(s.cache.entries)
		bytes += cachedSchedules*int(unsafe.Sizeof(schedEntry{})) + int(unsafe.Sizeof(chunkScratch{}))
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
