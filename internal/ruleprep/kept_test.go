package ruleprep

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
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

// keysErr says which of keys is not AES_k of its fragment, if any is.
func keysErr(keys []*dpienc.TokenKey, frags []string, k bbcrypto.Block) error {
	for i, f := range frags {
		var tok [tokenize.TokenSize]byte
		copy(tok[:], f)
		if keys[i] == nil || *keys[i] != dpienc.ComputeTokenKey(k, tok) {
			return fmt.Errorf("fragment %q: key %x, want AES_k of it", f, keys[i])
		}
	}
	return nil
}

// dialKept runs one preparation over in-memory ports with mb keeping kb,
// checks its keys, and fails the test unless its base phase went as want.
// tamper is runOverPorts'.
func dialKept(t *testing.T, epS, epR *Endpoint, mb *Middlebox, kb *KeptBase, frags []string, k bbcrypto.Block, want string, tamper func(bool, []byte)) {
	t.Helper()
	if err := tryDialKept(epS, epR, mb, kb, frags, k, want, tamper); err != nil {
		t.Fatal(err)
	}
}

// tryDialKept is dialKept for a goroutine other than the test's: it
// returns what went wrong.
func tryDialKept(epS, epR *Endpoint, mb *Middlebox, kb *KeptBase, frags []string, k bbcrypto.Block, want string, tamper func(bool, []byte)) error {
	keys, outcome, err, epErr := runOverPorts(epS, epR, mb, Dial{Kept: kb}, tamper)
	if err != nil || epErr[0] != nil || epErr[1] != nil {
		return fmt.Errorf("Run = %v, client %v, server %v", err, epErr[0], epErr[1])
	}
	if err := keysErr(keys, frags, k); err != nil {
		return err
	}
	if outcome != want {
		return fmt.Errorf("base phase %q, want %q", outcome, want)
	}
	return nil
}

// atVerdict returns a runOverPorts tamper that holds each server's verdict
// until n servers have reached theirs, so that n Runs are all past their
// start before any gets further.
func atVerdict(n int) func(bool, []byte) {
	var wg sync.WaitGroup
	wg.Add(n)
	return func(client bool, msg []byte) {
		if !client && msg[0] == SubVerdict {
			wg.Done()
			wg.Wait()
		}
	}
}

// TestConcurrentColdDialsKeepOneState: cold dials that share one KeptBase
// and all start before any keeps a base phase leave the server one kept
// state, not one each: only the first proposes a fresh ID, and the rest
// propose the zero ID. Every dial's keys are right, none is refused, and
// the next dial resumes the one state.
func TestConcurrentColdDialsKeepOneState(t *testing.T) {
	const dials = 4
	frags := []string{"maliciou"}
	epS, epR, mb, k, _ := setup(t, frags)
	keptSenders.clear()
	kb := new(KeptBase)
	var wg sync.WaitGroup
	tamper := atVerdict(dials)
	errs := make([]error, dials)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = tryDialKept(epS, epR, mb, kb, frags, k, ResumeMiss, tamper)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if n := keptSenders.lru.Len(); n != 1 {
		t.Fatalf("the server keeps %d states after %d concurrent cold dials, want 1", n, dials)
	}
	dialKept(t, epS, epR, mb, kb, frags, k, ResumeHit, nil)
}

// TestOverlappingRunsKeepTheirOwnState: one Middlebox runs two dials at
// once (go test -race checks them), one resuming a kept base phase with one
// client-server pair and one cold with another pair under another key.
// Each reports its own outcome and its own pair's keys.
func TestOverlappingRunsKeepTheirOwnState(t *testing.T) {
	frags := []string{"maliciou", "iciously"}
	epS, epR, mb, k, kRG := setup(t, frags)
	k2, krand2 := bbcrypto.RandomBlock(), bbcrypto.RandomBlock()
	epS2, epR2 := NewEndpoint(k2, kRG, krand2), NewEndpoint(k2, kRG, krand2)
	kb := new(KeptBase)
	dialKept(t, epS, epR, mb, kb, frags, k, ResumeMiss, nil)
	var (
		wg   sync.WaitGroup
		errs [2]error
	)
	tamper := atVerdict(2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = tryDialKept(epS, epR, mb, kb, frags, k, ResumeHit, tamper)
	}()
	go func() {
		defer wg.Done()
		errs[1] = tryDialKept(epS2, epR2, mb, new(KeptBase), frags, k2, ResumeMiss, tamper)
	}()
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		t.Fatal(err)
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
			dialKept(t, epS, epR, mb, kb, frags, k, ResumeMiss, nil)
			dialKept(t, epS, epR, mb, kb, frags, k, ResumeHit, nil)
			first := kb.id
			tc.spoil(kb)
			dialKept(t, epS, epR, mb, kb, frags, k, ResumeRefused, nil)
			if kb.recv != nil {
				t.Fatal("the middlebox kept a state the server refused")
			}
			dialKept(t, epS, epR, mb, kb, frags, k, ResumeMiss, nil)
			if kb.id == first || kb.id == (StateID{}) {
				t.Fatal("the cold dial after a refusal reused the refused ID")
			}
			dialKept(t, epS, epR, mb, kb, frags, k, ResumeHit, nil)
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
	dialKept(t, epS, epR, mb, kb, frags, k, ResumeMiss, nil)
	keptSenders.mu.Lock()
	keptSenders.evict(keptSenders.ids[kb.id])
	keptSenders.mu.Unlock()
	keptSenders.keep(kb.id, ot.NewExtSender())
	_, outcome, err, _ := runOverPorts(epS, epR, mb, Dial{Kept: kb}, nil)
	if !errors.Is(err, ErrLabelCommitment) {
		t.Fatalf("Run = %v, want ErrLabelCommitment", err)
	}
	if outcome != ResumeHit || kb.recv != nil {
		t.Fatalf("base phase %q, state kept %v: want a resumption, then the state dropped", outcome, kb.recv != nil)
	}
	dialKept(t, epS, epR, mb, kb, frags, k, ResumeMiss, nil)
	dialKept(t, epS, epR, mb, kb, frags, k, ResumeHit, nil)
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
