package ruleprep

import (
	"container/list"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/dpienc"
	"repro/internal/ot"
	"repro/internal/tokenize"
)

// TestWindowMatchesSetModel holds the server's anti-replay window to a
// set-based reference: a position is accepted exactly when it was never
// accepted before and lies fewer than 64 below the highest accepted.
// Position 0 is the base phase's, accepted when the state is kept.
func TestWindowMatchesSetModel(t *testing.T) {
	check := func(t *testing.T, seq []uint32) {
		t.Helper()
		w := window{seen: 1}
		seen, top := map[uint32]bool{0: true}, uint32(0)
		for i, c := range seq {
			want := !seen[c] && (c > top || top-c < 64)
			if got := w.accept(c); got != want {
				t.Fatalf("step %d: accept(%d) = %v, want %v (top %d)", i, c, got, want, top)
			}
			if want {
				seen[c], top = true, max(top, c)
			}
		}
	}
	for _, tc := range []struct {
		name string
		seq  []uint32
	}{
		{"in order", []uint32{1, 2, 3, 4}},
		{"the base phase's position", []uint32{0, 1, 0}},
		{"a replay", []uint32{1, 2, 2, 1}},
		{"out of order within the window", []uint32{5, 3, 4, 1, 2, 5}},
		{"the window's edge", []uint32{100, 37, 36, 37, 99}},
		{"a jump past the window", []uint32{1, 200, 1, 150, 136, 137, 201, 137}},
		{"a jump of exactly 64", []uint32{3, 67, 3, 4, 66}},
		{"the top of the range", []uint32{1<<32 - 1, 1<<32 - 2, 1<<32 - 64, 1<<32 - 65, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) { check(t, tc.seq) })
	}
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 200; run++ {
		seq := make([]uint32, 300)
		base := 0
		for i := range seq {
			base += rng.Intn(3)
			seq[i] = uint32(max(0, base+rng.Intn(140)-100))
		}
		check(t, seq)
	}
}

// TestSenderStoreEvictsAndZeroes: the server's store holds at most max
// states, evicts the least recently used, zeroes what it evicts, and never
// replaces a kept state.
func TestSenderStoreEvictsAndZeroes(t *testing.T) {
	st := &senderStore{max: 2, ids: map[StateID]*list.Element{}}
	a, b, c := StateID{1}, StateID{2}, StateID{3}
	sa, sb := ot.NewExtSender(), ot.NewExtSender()
	st.keep(a, sa)
	st.keep(b, sb)
	st.keep(a, ot.NewExtSender()) // not replaced
	if got := st.resume(a, 1); got == nil || *got != *sa.At(1) {
		t.Fatal("kept state a replaced or not resumed")
	}
	evicted := st.ids[b].Value.(*keptSender)
	st.keep(c, ot.NewExtSender()) // b is the least recently used
	if *evicted != (keptSender{}) {
		t.Fatal("evicted state not zeroed")
	}
	if st.resume(b, 1) != nil || st.resume(a, 2) == nil || st.resume(c, 1) == nil {
		t.Fatal("eviction did not take the least recently used state")
	}
	st.keep(StateID{}, ot.NewExtSender())
	if st.lru.Len() != 2 || st.ids[StateID{}] != nil {
		t.Fatal("a state kept under the zero ID")
	}
	st.clear()
	if st.lru.Len() != 0 || len(st.ids) != 0 {
		t.Fatal("clear left states")
	}
}

// checkKeys fails the test unless keys are AES_k of each fragment.
func checkKeys(t *testing.T, keys []*dpienc.TokenKey, frags []string, k bbcrypto.Block) {
	t.Helper()
	for i, f := range frags {
		var tok [tokenize.TokenSize]byte
		copy(tok[:], f)
		if keys[i] == nil || *keys[i] != dpienc.ComputeTokenKey(k, tok) {
			t.Fatalf("fragment %q: key %x, want AES_k of it", f, keys[i])
		}
	}
}

// dialKept runs one preparation over in-memory ports with mb keeping kb,
// checks its keys, and fails the test unless its base phase went as want.
func dialKept(t *testing.T, epS, epR *Endpoint, mb *Middlebox, frags []string, k bbcrypto.Block, want string) {
	t.Helper()
	keys, err, epErr := runOverPorts(epS, epR, mb, nil)
	if err != nil || epErr[0] != nil || epErr[1] != nil {
		t.Fatalf("Run = %v, client %v, server %v", err, epErr[0], epErr[1])
	}
	checkKeys(t, keys, frags, k)
	if got := mb.Resumption(); got != want {
		t.Fatalf("base phase %q, want %q", got, want)
	}
}

// TestRefusedResumptionRunsBasePhase: a dial resumes the base phase kept
// from the one before, and when the server refuses the kept state — a
// replayed position, an ID it never kept, an evicted ID, a cleared store —
// the dial runs a full base phase with correct keys, never an error. The
// middlebox then forgets the state, so the next dial runs cold under a
// fresh ID, kept again, and the one after resumes it.
func TestRefusedResumptionRunsBasePhase(t *testing.T) {
	frags := []string{"maliciou", "iciously"}
	for _, tc := range []struct {
		name  string
		spoil func(kb *KeptBase)
	}{
		{"replayed position", func(kb *KeptBase) { kb.next-- }},
		{"unknown ID", func(kb *KeptBase) { kb.id = StateID(bbcrypto.RandomBlock()) }},
		{"evicted ID", func(kb *KeptBase) {
			keptSenders.mu.Lock()
			defer keptSenders.mu.Unlock()
			keptSenders.evict(keptSenders.ids[kb.id])
		}},
		{"cleared server store", func(*KeptBase) { keptSenders.clear() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			epS, epR, mb, k, _ := setup(t, frags)
			kb := new(KeptBase)
			mb.Keep(kb)
			dialKept(t, epS, epR, mb, frags, k, ResumeMiss)
			dialKept(t, epS, epR, mb, frags, k, ResumeHit)
			first := kb.id
			tc.spoil(kb)
			dialKept(t, epS, epR, mb, frags, k, ResumeRefused)
			if kb.recv != nil {
				t.Fatal("the middlebox kept a state the server refused")
			}
			dialKept(t, epS, epR, mb, frags, k, ResumeMiss)
			if kb.id == first || kb.id == (StateID{}) {
				t.Fatal("the cold dial after a refusal reused the refused ID")
			}
			dialKept(t, epS, epR, mb, frags, k, ResumeHit)
		})
	}
}

// TestDisagreeingStateIsDropped: when the server holds another base phase
// under the kept ID than the middlebox (a cold Start raced to the server by
// a party on the path), the resumed dial fails the label commitment check,
// and the middlebox drops the state: the dial after runs cold and the one
// after that resumes.
func TestDisagreeingStateIsDropped(t *testing.T) {
	frags := []string{"maliciou"}
	epS, epR, mb, k, _ := setup(t, frags)
	kb := new(KeptBase)
	mb.Keep(kb)
	dialKept(t, epS, epR, mb, frags, k, ResumeMiss)
	keptSenders.mu.Lock()
	keptSenders.evict(keptSenders.ids[kb.id])
	keptSenders.mu.Unlock()
	keptSenders.keep(kb.id, ot.NewExtSender())
	if _, err, _ := runOverPorts(epS, epR, mb, nil); !errors.Is(err, ErrLabelCommitment) {
		t.Fatalf("Run = %v, want ErrLabelCommitment", err)
	}
	if mb.Resumption() != ResumeHit || kb.recv != nil {
		t.Fatalf("base phase %q, state kept %v: want a resumption, then the state dropped", mb.Resumption(), kb.recv != nil)
	}
	dialKept(t, epS, epR, mb, frags, k, ResumeMiss)
	dialKept(t, epS, epR, mb, frags, k, ResumeHit)
}

// resumeMsg is a middlebox's SubResume message.
func resumeMsg(n uint32, id StateID, c uint32) []byte {
	return appendResume(nil, int(n), id, c)
}

// TestResumeParsed pins DESIGN.md §10 row 12 at the server: what it does
// with each SubResume — the verdict it sends (none when it refuses the
// message) and the message it waits for next.
func TestResumeParsed(t *testing.T) {
	kept := StateID(bbcrypto.RandomBlock())
	keptSenders.keep(kept, ot.NewExtSender())
	for _, tc := range []struct {
		name    string
		msg     []byte
		verdict int  // -1: none sent
		next    byte // the message due after the circuit
		err     error
	}{
		{"zero ID at position 0: a base phase, kept by no one", resumeMsg(1, StateID{}, 0), 0, SubMsgA, nil},
		{"zero ID naming a position", resumeMsg(1, StateID{}, 3), -1, 0, errZeroIDPosition},
		{"a fresh ID at position 0: a base phase", resumeMsg(1, StateID(bbcrypto.RandomBlock()), 0), 0, SubMsgA, nil},
		{"an ID never kept", resumeMsg(1, StateID(bbcrypto.RandomBlock()), 3), 0, SubMsgA, nil},
		{"the kept ID at a fresh position", resumeMsg(1, kept, 1), 1, SubU, nil},
		{"the kept ID at that position again", resumeMsg(1, kept, 1), 0, SubMsgA, nil},
		{"the kept ID at position 0", resumeMsg(1, kept, 0), 0, SubMsgA, nil},
		{"the kept ID at another fresh position", resumeMsg(1, kept, 2), 1, SubU, nil},
		{"more than MaxFragments", resumeMsg(MaxFragments+1, StateID{}, 0), -1, 0, ErrTooManyFragments},
		{"a client's Start", binary.BigEndian.AppendUint32([]byte{SubStart}, 1), -1, 0, &MessageError{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &scriptPort{msgs: [][]byte{tc.msg}}
			err := NewEndpoint(bbcrypto.Block{1}, bbcrypto.Block{2}, bbcrypto.Block{3}).Serve(p, false)
			var msgErr *MessageError
			switch {
			case tc.err == nil && err == nil:
				t.Fatal("Serve ended in nil without Done")
			case tc.err == nil && p.due != tc.next:
				t.Fatalf("Serve = %v waiting for message %d, want %d", err, p.due, tc.next)
			case tc.err != nil && !errors.Is(err, tc.err) && !errors.As(tc.err, &msgErr):
				t.Fatalf("Serve = %v, want %v", err, tc.err)
			case tc.err != nil && errors.As(tc.err, &msgErr) && !errors.As(err, &msgErr):
				t.Fatalf("Serve = %v, want a *MessageError", err)
			}
			verdict := -1
			if len(p.sent) > 0 && p.sent[0][0] == SubVerdict {
				verdict = int(p.sent[0][1])
			}
			if verdict != tc.verdict {
				t.Fatalf("verdict %d, want %d", verdict, tc.verdict)
			}
		})
	}
}
