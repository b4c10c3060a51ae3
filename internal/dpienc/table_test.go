package dpienc

import (
	"math/rand"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/tokenize"
)

// smallTable is a 64-slot counter table whose hash is the token's low six
// bits (mul = 2^58 under a shift of 58), so a test decides which tokens
// share a probe chain: token h + 64·i has home slot h.
func smallTable() *counterTable {
	t := &counterTable{mul: 1 << 58, epoch: 1}
	t.alloc(minTableSlots)
	return t
}

// checkChains verifies the invariant stale-slot takeover rests on: walking
// from any current-epoch slot's home to the slot itself meets current-epoch
// slots only — no stale or empty slot precedes a live key on its chain.
func checkChains(t *testing.T, tab *counterTable) {
	t.Helper()
	mask := uint64(len(tab.slots) - 1)
	live := 0
	for i := range tab.slots {
		sl := &tab.slots[i]
		if sl.epoch != tab.epoch {
			continue
		}
		live++
		for j := (sl.token * tab.mul) >> tab.shift; j != uint64(i); j = (j + 1) & mask {
			if tab.slots[j].epoch != tab.epoch {
				t.Fatalf("token %d lives in slot %d, but slot %d on the way from its home is of epoch %d, not %d",
					sl.token, i, j, tab.slots[j].epoch, tab.epoch)
			}
			if tab.slots[j].token == sl.token {
				t.Fatalf("token %d has two live slots, %d and %d", sl.token, j, i)
			}
		}
	}
	if live != tab.live {
		t.Fatalf("table counts %d live slots, %d are of the current epoch", tab.live, live)
	}
}

// TestCounterTableTakeoverCases walks the three shapes by hand: a stale slot
// ahead of the key's own stale slot, a stale slot ahead of an empty one, and
// a chain that wraps past the end of the array.
func TestCounterTableTakeoverCases(t *testing.T) {
	tab := smallTable()
	at := func(token uint64) int {
		sl := tab.slot(token)
		for i := range tab.slots {
			if &tab.slots[i] == sl {
				return i
			}
		}
		t.Fatal("slot() returned a pointer outside the table")
		return -1
	}
	const a, b, c = 10, 10 + 64, 10 + 128 // home slot 10
	const x, y, z = 63, 63 + 64, 63 + 128 // home slot 63: the chain is 63, 0, 1

	// Epoch 1: a, b and x, y, z fill their chains in order.
	if at(a) != 10 || at(b) != 11 || at(x) != 63 || at(y) != 0 || at(z) != 1 {
		t.Fatal("epoch 1: colliding tokens did not probe linearly from their home slot, across the array end")
	}
	tab.slot(b).ct = 7
	tab.slot(z).ct = 9

	// Epoch 2. b's own stale slot is 11, but stale slot 10 comes first.
	tab.reset()
	if got := at(b); got != 10 || tab.slot(b).ct != 0 {
		t.Fatalf("epoch 2: b went to slot %d with counter %d, want the first stale slot, 10, and a zero counter", got, tab.slot(b).ct)
	}
	tab.slot(b).ct = 3
	// c was never seen: it takes stale slot 11 (b's old one) although slot
	// 12 is empty, and a then finds both taken and moves on to 12.
	if at(c) != 11 || at(a) != 12 {
		t.Fatal("epoch 2: a new token did not take over the stale slot ahead of the empty one")
	}
	if tab.slot(b).ct != 3 {
		t.Fatal("epoch 2: b's counter was disturbed by its neighbours' inserts")
	}
	// The wrapped chain, in another order: z now lives at 63, x at 0.
	if at(z) != 63 || tab.slot(z).ct != 0 || at(x) != 0 || at(y) != 1 {
		t.Fatal("epoch 2: takeover along the chain that wraps the array end went wrong")
	}
	checkChains(t, tab)

	// Epoch 3: everything stale again, one token per chain comes back.
	tab.reset()
	if at(c) != 10 || at(y) != 63 {
		t.Fatal("epoch 3: the first token of each chain did not take its home slot")
	}
	checkChains(t, tab)
	if len(tab.slots) != minTableSlots {
		t.Fatalf("the table grew to %d slots for six tokens", len(tab.slots))
	}
}

// TestCounterTableMatchesMapUnderTakeover drives random increments and
// resets through the 64-slot table and a map that is cleared at every reset.
// 36 tokens on four home slots (two of them at the array's end) make every
// chain long and shared; they stay under the ¾ load that would grow the
// table, so across a dozen epochs every insert after the first is a takeover.
func TestCounterTableMatchesMapUnderTakeover(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	tab := smallTable()
	model := map[uint64]uint32{}
	homes := []uint64{10, 11, 62, 63}
	epochs := 1
	for op := 0; op < 20000; op++ {
		if rng.Intn(150) == 0 {
			tab.reset()
			clear(model)
			epochs++
		}
		token := homes[rng.Intn(len(homes))] + 64*uint64(rng.Intn(9))
		sl := tab.slot(token)
		if sl.token != token || sl.ct != model[token] {
			t.Fatalf("op %d, epoch %d: token %d has counter %d in slot of token %d, the model says %d",
				op, epochs, token, sl.ct, sl.token, model[token])
		}
		sl.ct++
		model[token]++
		if op%97 == 0 {
			checkChains(t, tab)
		}
	}
	if epochs < 3 {
		t.Fatalf("only %d epochs", epochs)
	}
	if len(tab.slots) != minTableSlots {
		t.Fatalf("the table grew to %d slots for 36 tokens", len(tab.slots))
	}
}

// TestCounterTableSteadyStateNeverGrows: E distinct tokens per interval, a
// fresh E every interval. The table reaches its size within the first
// interval and is never reallocated after it (every grow doubles the slot
// array, so its length is the rebuild counter), and that size is within 4·E.
func TestCounterTableSteadyStateNeverGrows(t *testing.T) {
	const e = 3000
	s := NewSender(bbcrypto.Block{1}, bbcrypto.Block{}, ProtocolII, 0)
	rng := rand.New(rand.NewSource(3000))
	toks := make([]tokenize.Token, 2*e)
	var out []EncryptedToken
	afterFirst := 0
	for interval := 0; interval < 10; interval++ {
		for i := 0; i < e; i++ {
			rng.Read(toks[i].Text[:])
			toks[e+i] = toks[i] // every token occurs twice
		}
		rng.Shuffle(len(toks), func(i, j int) { toks[i], toks[j] = toks[j], toks[i] })
		out = s.EncryptTokensInto(out, toks)
		if s.tab.live != e {
			t.Fatalf("interval %d: %d live slots, want %d", interval, s.tab.live, e)
		}
		if interval == 0 {
			afterFirst = len(s.tab.slots)
		}
		s.Reset(uint64(interval+1) << 32)
	}
	if len(s.tab.slots) != afterFirst {
		t.Fatalf("the table went from %d to %d slots after the first interval: steady state rebuilt it", afterFirst, len(s.tab.slots))
	}
	if afterFirst > 4*e {
		t.Fatalf("%d slots for %d distinct tokens an interval, want at most %d", afterFirst, e, 4*e)
	}
}
