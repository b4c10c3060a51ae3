package ruleprep

import (
	"container/list"
	"encoding/binary"
	"errors"
	"sync"

	"repro/internal/bbcrypto"
	"repro/internal/ot"
)

// StateID names a kept base phase (DESIGN.md substitution 1, "Kept base
// phases"). The middlebox draws it; the all-zero ID asks the server to keep
// nothing.
type StateID [16]byte

// resumeLen is the body of SubResume: uint32 n, the state ID, uint32 c.
const resumeLen = 4 + len(StateID{}) + 4

// Verdict bodies: the server resumes the kept base phase at the proposed
// position, or runs a base phase.
const (
	verdictBase   byte = 0
	verdictResume byte = 1
)

// Resumption outcomes of a dial's base phase (Middlebox.Run).
const (
	// ResumeHit: the server resumed the kept base phase; no base OT ran.
	ResumeHit = "hit"
	// ResumeMiss: nothing was kept for the server; the dial ran a base
	// phase, kept from then on unless another dial's was already pending
	// (KeptBase.reserve).
	ResumeMiss = "miss"
	// ResumeRefused: the server refused the kept state (an unknown,
	// evicted or replayed position); the dial ran a base phase, and the
	// middlebox forgot the state.
	ResumeRefused = "refused"
)

// appendResume appends the server's Start: n, the state ID and the
// position c.
func appendResume(dst []byte, n int, id StateID, c uint32) []byte {
	dst = binary.BigEndian.AppendUint32(append(dst, SubResume), uint32(n))
	return binary.BigEndian.AppendUint32(append(dst, id[:]...), c)
}

// errZeroIDPosition refuses a SubResume that keeps nothing yet names a
// position: the middlebox never writes one.
var errZeroIDPosition = errors.New("ruleprep: resume with the zero state ID names a position")

// parseResume reads the state ID and position of a SubResume body
// (appendResume), refusing an all-zero ID with a position other than 0.
func parseResume(body []byte) (id StateID, c uint32, err error) {
	copy(id[:], body[4:])
	c = binary.BigEndian.Uint32(body[4+len(id):])
	if id == (StateID{}) && c != 0 {
		return id, c, errZeroIDPosition
	}
	return id, c, nil
}

// window is one kept state's anti-replay window at the server (as DTLS's,
// RFC 6347 §4.1.2.6): the highest position answered and which of the 64
// at and below it were. Concurrent dials through one middlebox reach the
// server out of order, so a strictly increasing counter would refuse
// honest dials.
type window struct {
	top  uint32
	seen uint64 // bit i: position top − i was answered
}

// accept reports whether position c may be answered — neither answered
// before nor below the window — and marks it answered.
func (w *window) accept(c uint32) bool {
	switch {
	case c > w.top:
		// A shift of 64 or more empties the bitmap.
		w.seen = w.seen<<(c-w.top) | 1
		w.top = c
		return true
	case w.top-c >= 64:
		return false
	}
	bit := uint64(1) << (w.top - c)
	if w.seen&bit != 0 {
		return false
	}
	w.seen |= bit
	return true
}

// keptSenderBytes bounds the server's store: ≈ 2 KiB a state (s and the 128
// seeds), so 1 024 states.
const (
	keptSenderBytes = 2 << 20
	keptStateBytes  = 2 << 10
)

// keptSender is one kept base phase at the server.
type keptSender struct {
	id     StateID
	sender ot.ExtSender
	win    window
}

// senderStore is the server's kept base phases, process-wide: no server
// object outlives a connection. It holds at most max states, evicting the
// least recently used and zeroing its secrets.
type senderStore struct {
	mu  sync.Mutex
	max int
	ids map[StateID]*list.Element // of *keptSender
	lru list.List                 // most recently used first
}

var keptSenders = &senderStore{max: keptSenderBytes / keptStateBytes, ids: map[StateID]*list.Element{}}

// resume returns a sender at position c of the state kept under id, or nil
// when there is none or the window refuses c.
func (st *senderStore) resume(id StateID, c uint32) *ot.ExtSender {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.ids[id]
	if e == nil {
		return nil
	}
	k := e.Value.(*keptSender)
	if !k.win.accept(c) {
		return nil
	}
	st.lru.MoveToFront(e)
	return k.sender.At(c)
}

// keep keeps the base phase s ran under id, position 0 answered, unless id
// is zero or already kept: a kept state is never replaced.
func (st *senderStore) keep(id StateID, s *ot.ExtSender) {
	if id == (StateID{}) {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ids[id] != nil {
		return
	}
	if st.lru.Len() >= st.max {
		st.evict(st.lru.Back())
	}
	st.ids[id] = st.lru.PushFront(&keptSender{id: id, sender: *s, win: window{seen: 1}})
}

// clear evicts every state.
func (st *senderStore) clear() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.lru.Len() > 0 {
		st.evict(st.lru.Back())
	}
}

func (st *senderStore) evict(e *list.Element) {
	k := st.lru.Remove(e).(*keptSender)
	delete(st.ids, k.id)
	*k = keptSender{}
}

// KeptBase is the middlebox's kept base phase with one server: the ID, the
// receiver's base keys and the next position to hand out. A Run given one
// (Dial.Kept) resumes it instead of running base OTs; concurrent dials share
// it, each reserving its own position at its start. The zero value keeps
// nothing yet. Safe for concurrent use.
type KeptBase struct {
	mu   sync.Mutex
	id   StateID
	recv *ot.ExtReceiver // nil: nothing kept
	next uint32
	// pending is the fresh ID a cold dial proposed and has neither kept
	// nor failed under yet; zero when there is none.
	pending StateID
}

// reserve returns the ID and position the next dial proposes, with a
// receiver at that position when a state is kept. With none it draws a
// fresh ID at position 0, pending until that dial keeps its base phase or
// fails; meanwhile other dials propose the zero ID and keep nothing, so
// concurrent cold dials leave the server one state, not one each.
func (k *KeptBase) reserve() (StateID, uint32, *ot.ExtReceiver) {
	k.mu.Lock()
	defer k.mu.Unlock()
	switch {
	case k.recv != nil && k.next < 1<<32-1:
		c := k.next
		k.next++
		return k.id, c, k.recv.At(c)
	case k.pending != (StateID{}):
		return StateID{}, 0, nil
	}
	k.pending = StateID(bbcrypto.RandomBlock())
	return k.pending, 0, nil
}

// keep keeps recv's base phase, run under id at position 0, unless id is
// zero.
func (k *KeptBase) keep(id StateID, recv *ot.ExtReceiver) {
	if id == (StateID{}) {
		return
	}
	kept := recv.At(0)
	k.mu.Lock()
	defer k.mu.Unlock()
	k.clearLocked()
	k.id, k.recv, k.next, k.pending = id, kept, 1, StateID{}
}

// drop forgets the kept state if it is still id's, and releases id if it is
// the pending one.
func (k *KeptBase) drop(id StateID) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.id == id {
		k.clearLocked()
	}
	if k.pending == id {
		k.pending = StateID{}
	}
}

// Clear forgets the kept state and zeroes its keys.
func (k *KeptBase) Clear() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.clearLocked()
}

func (k *KeptBase) clearLocked() {
	if k.recv != nil {
		*k.recv = ot.ExtReceiver{}
	}
	k.id, k.recv, k.next = StateID{}, nil, 0
}
