package ot

import (
	"bytes"
	"crypto/elliptic"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bbcrypto"
)

// baseKeys runs base OT i with the given choice against a fresh sender and
// returns the receiver's point and key and both sender keys.
func baseKeys(t *testing.T, s *baseSender, msgA []byte, i, choice int) (msgB []byte, kc, k0, k1 Block) {
	t.Helper()
	ax, ay := elliptic.Unmarshal(curve, msgA)
	msgB, kc, err := baseReceive(i, choice, ax, ay, msgA)
	if err != nil {
		t.Fatal(err)
	}
	if k0, k1, err = s.keys(i, msgB); err != nil {
		t.Fatal(err)
	}
	return msgB, kc, k0, k1
}

func TestBaseTransferBothChoices(t *testing.T) {
	s, msgA, err := newBaseSender()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < kappa; i++ {
		for choice := 0; choice < 2; choice++ {
			_, kc, k0, k1 := baseKeys(t, s, msgA, i, choice)
			if want := [2]Block{k0, k1}[choice]; kc != want {
				t.Fatalf("OT %d choice %d: receiver key is not k%d", i, choice, choice)
			}
		}
	}
}

func TestBaseReceiverCannotLearnOther(t *testing.T) {
	s, msgA, err := newBaseSender()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < kappa; i++ {
		for choice := 0; choice < 2; choice++ {
			_, kc, k0, k1 := baseKeys(t, s, msgA, i, choice)
			if other := [2]Block{k0, k1}[1-choice]; kc == other {
				t.Fatalf("OT %d choice %d: receiver key matches the unchosen key", i, choice)
			}
		}
	}
}

// TestBaseKeysBindIndex: the key hash binds the index, so one receiver
// point replayed at a second index yields other keys.
func TestBaseKeysBindIndex(t *testing.T) {
	s, msgA, err := newBaseSender()
	if err != nil {
		t.Fatal(err)
	}
	msgB, _, k0, k1 := baseKeys(t, s, msgA, 3, 1)
	j0, j1, err := s.keys(4, msgB)
	if err != nil {
		t.Fatal(err)
	}
	if j0 == k0 || j1 == k1 || j0 == k1 || j1 == k0 {
		t.Fatal("one receiver point at two indices shares a key")
	}
}

func TestBaseRejectsGarbagePoints(t *testing.T) {
	s, msgA, err := newBaseSender()
	if err != nil {
		t.Fatal(err)
	}
	offCurve := bytes.Clone(msgA)
	offCurve[pointSize-1] ^= 1
	for _, bad := range [][]byte{{1, 2, 3}, {0}, nil, offCurve, msgA[:pointSize-1]} {
		if _, err := NewExtSender().BaseRespond([][]byte{bad}); err == nil {
			t.Fatalf("base point %x accepted", bad)
		}
		if _, _, err := s.keys(0, bad); err == nil {
			t.Fatalf("receiver point %x accepted", bad)
		}
	}
}

func TestExtTransferSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const m = 10
	pairs := make([][2]Block, m)
	choices := make([]bool, m)
	for j := range pairs {
		pairs[j][0] = bbcrypto.RandomBlock()
		pairs[j][1] = bbcrypto.RandomBlock()
		choices[j] = rng.Intn(2) == 1
	}
	got, err := ExtTransfer(pairs, choices)
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		want := pairs[j][0]
		other := pairs[j][1]
		if choices[j] {
			want, other = other, want
		}
		if got[j] != want {
			t.Fatalf("OT %d: wrong message", j)
		}
		if got[j] == other {
			t.Fatalf("OT %d: received the unchosen message", j)
		}
	}
}

func TestExtTransferLargeAndUnaligned(t *testing.T) {
	// m not a multiple of 8 (or of the row hash's 2 and 4 lanes) exercises
	// the packing edges; m > kappa exercises the extension proper.
	for _, m := range []int{0, 1, 2, 3, 5, 7, 129, 1000, 1037} {
		rng := rand.New(rand.NewSource(int64(m)))
		pairs := make([][2]Block, m)
		choices := make([]bool, m)
		for j := range pairs {
			pairs[j][0] = bbcrypto.RandomBlock()
			pairs[j][1] = bbcrypto.RandomBlock()
			choices[j] = rng.Intn(2) == 1
		}
		got, err := ExtTransfer(pairs, choices)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		for j := range got {
			want := pairs[j][0]
			if choices[j] {
				want = pairs[j][1]
			}
			if got[j] != want {
				t.Fatalf("m=%d OT %d: wrong message", m, j)
			}
		}
	}
}

// wantCount fails the test unless err is a *CountError.
func wantCount(t *testing.T, what string, err error) {
	t.Helper()
	var ce *CountError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: %v, want a *CountError", what, err)
	}
}

func TestExtLengthMismatchErrors(t *testing.T) {
	recv, msgAs, err := NewExtReceiver()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgAs) != 1 {
		t.Fatalf("%d base points, want one per batch", len(msgAs))
	}
	send := NewExtSender()
	// The old protocol's one point per base OT, and none at all.
	for _, n := range []int{0, kappa} {
		many := make([][]byte, n)
		for i := range many {
			many[i] = msgAs[0]
		}
		_, err := send.BaseRespond(many)
		wantCount(t, "base points", err)
	}
	msgBs, err := send.BaseRespond(msgAs)
	if err != nil {
		t.Fatal(err)
	}
	_, err = recv.Extend(msgBs[:kappa-1], []bool{true})
	wantCount(t, "base responses", err)
	u, err := recv.Extend(msgBs, []bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = send.Send(u[:5], make([][2]Block, 3))
	wantCount(t, "correction columns", err)
	short := slices.Clone(u)
	short[7] = nil
	if _, err := send.Send(short, make([][2]Block, 3)); err == nil {
		t.Fatal("short correction column accepted")
	}
	masked, err := send.Send(u, make([][2]Block, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recv.Receive(masked, []bool{true}); err == nil {
		t.Fatal("choice-length mismatch accepted")
	}
}

// rowOf extracts row j (kappa bits packed into a Block) of a column-major
// bit matrix one bit at a time — the oracle for transpose.
func rowOf(cols [][]byte, j int) Block {
	var row Block
	byteIdx, mask := j/8, byte(1)<<uint(j%8)
	for i := 0; i < kappa; i++ {
		if cols[i][byteIdx]&mask != 0 {
			row[i/8] |= 1 << uint(i%8)
		}
	}
	return row
}

func TestRowOf(t *testing.T) {
	// Build a 2-row matrix column-wise and check row extraction.
	cols := make([][]byte, kappa)
	for i := range cols {
		cols[i] = []byte{0}
		if i%3 == 0 {
			cols[i][0] |= 1 // row 0 bit set for columns divisible by 3
		}
	}
	row := rowOf(cols, 0)
	for i := 0; i < kappa; i++ {
		want := i%3 == 0
		got := row[i/8]&(1<<uint(i%8)) != 0
		if got != want {
			t.Fatalf("row bit %d = %v, want %v", i, got, want)
		}
	}
}

func TestTransposeMatchesRowOf(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{1, 7, 8, 129, 1536} {
		stride := (m + 7) / 8
		flat := make([]byte, kappa*stride)
		rng.Read(flat)
		cols := make([][]byte, kappa)
		for i := range cols {
			cols[i] = flat[i*stride : (i+1)*stride]
		}
		rows := transpose(flat, m)
		if len(rows) != m {
			t.Fatalf("m=%d: %d rows", m, len(rows))
		}
		for j, row := range rows {
			if row != rowOf(cols, j) {
				t.Fatalf("m=%d: row %d differs from the bitwise oracle", m, j)
			}
		}
	}
}

// FuzzOTMessages feeds hostile peer messages to every OT step that parses
// one: the base points to BaseRespond, the first base response to Extend
// and one correction column to Send, each optionally one entry short.
// Malformed input must end in an error, never a panic. A well-formed base
// message costs 128 scalar multiplications, so those two steps run only on
// malformed input; the unit tests above run the well-formed ones.
func FuzzOTMessages(f *testing.F) {
	const m = 10
	recv, msgAs, err := NewExtReceiver()
	if err != nil {
		f.Fatal(err)
	}
	send := NewExtSender()
	msgBs, err := send.BaseRespond(msgAs)
	if err != nil {
		f.Fatal(err)
	}
	u, err := recv.Extend(msgBs, make([]bool, m))
	if err != nil {
		f.Fatal(err)
	}
	offCurve := bytes.Clone(msgBs[0])
	offCurve[1] ^= 1
	f.Add(msgAs[0], msgBs[0], u[0], uint8(0), false)
	f.Add([]byte{0}, []byte{0}, []byte{}, uint8(5), true)
	f.Add(append(bytes.Clone(msgAs[0]), msgAs[0]...), offCurve, u[0][:1], uint8(127), false)
	f.Fuzz(func(t *testing.T, a, b, col []byte, idx uint8, short bool) {
		var as [][]byte
		for p := a; len(p) > 0; p = p[min(pointSize, len(p)):] {
			as = append(as, p[:min(pointSize, len(p))])
		}
		if len(as) != 1 || !onCurve(a) {
			if _, err := NewExtSender().BaseRespond(as); err == nil {
				t.Fatalf("base points %x accepted", a)
			}
		}

		bs := slices.Clone(msgBs)
		bs[0] = b
		if short {
			bs = bs[1:]
		}
		if short || !onCurve(b) {
			if _, err := recv.Extend(bs, make([]bool, m)); err == nil {
				t.Fatalf("base response %x accepted (short %v)", b, short)
			}
		}

		i := int(idx) % kappa
		us := slices.Clone(u)
		us[i] = col
		if short {
			us = us[1:]
		}
		_, err := send.Send(us, make([][2]Block, m))
		if wellFormed := !short && len(col) == (m+7)/8; (err == nil) != wellFormed {
			t.Fatalf("correction column %d = %x (short %v): %v", i, col, short, err)
		}
	})
}

// onCurve reports whether p is one uncompressed point of P-256.
func onCurve(p []byte) bool {
	x, _ := elliptic.Unmarshal(curve, p)
	return x != nil
}

// TestPRGAtIsCTR: the column PRG at position c is AES-CTR from block
// c·2²⁵ on, and at position 0 it is bbcrypto.NewPRG's stream byte for
// byte, so a fresh extension is what it was before positions existed.
func TestPRGAtIsCTR(t *testing.T) {
	key := bbcrypto.RandomBlock()
	for _, n := range []int{0, 1, 16, 37, 192} {
		got, want := make([]byte, n), make([]byte, n)
		prgAt(got, &key, 0)
		bbcrypto.NewPRG(key).Read(want)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d bytes at position 0 differ from NewPRG", n)
		}
	}
	aes := bbcrypto.NewAES(key)
	for _, c := range []uint32{1, 2, 1<<32 - 1} {
		got := make([]byte, 40)
		prgAt(got, &key, c)
		for b := 0; b < 3; b++ {
			var ctr, ks Block
			binary.BigEndian.PutUint64(ctr[:], uint64(c)>>39)
			binary.BigEndian.PutUint64(ctr[8:], uint64(c)<<25+uint64(b))
			aes.Encrypt(ks[:], ctr[:])
			if !bytes.Equal(got[16*b:min(16*b+16, len(got))], ks[:min(16, len(got)-16*b)]) {
				t.Fatalf("position %d block %d is not AES-CTR block c·2²⁵ + %d", c, b, b)
			}
		}
	}
}

// keptBase runs one base phase and returns both sides, from which dials
// extend at their positions.
func keptBase(t testing.TB) (*ExtReceiver, *ExtSender) {
	t.Helper()
	recv, msgAs, err := NewExtReceiver()
	if err != nil {
		t.Fatal(err)
	}
	send := NewExtSender()
	msgBs, err := send.BaseRespond(msgAs)
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Base(msgBs); err != nil {
		t.Fatal(err)
	}
	return recv, send
}

// TestDialsFromOneBasePhase: dials at positions 0, 1 and 7 of one base
// phase each deliver the chosen message of every pair. With the same choice
// bits their correction matrices share no 16-byte block, which they would
// wherever two dials read one PRG block, and their rows hash under
// disjoint tweak ranges.
func TestDialsFromOneBasePhase(t *testing.T) {
	const m = 1037
	recv, send := keptBase(t)
	rng := rand.New(rand.NewSource(3))
	pairs := make([][2]Block, m)
	choices := make([]bool, m)
	for j := range pairs {
		pairs[j] = [2]Block{bbcrypto.RandomBlock(), bbcrypto.RandomBlock()}
		choices[j] = rng.Intn(2) == 1
	}
	positions := []uint32{0, 1, 7}
	us := make([][][]byte, len(positions))
	for d, c := range positions {
		r := recv.At(c)
		u, err := r.Correct(choices)
		if err != nil {
			t.Fatal(err)
		}
		masked, err := send.At(c).Send(u, pairs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Receive(masked, choices)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if want := pairs[j][bit01(choices[j])]; got[j] != want {
				t.Fatalf("position %d OT %d: wrong message", c, j)
			}
		}
		us[d] = u
	}
	for a := range us {
		for b := a + 1; b < len(us); b++ {
			for i := range us[a] {
				for off := 0; off < len(us[a][i]); off += bbcrypto.BlockSize {
					end := min(off+bbcrypto.BlockSize, len(us[a][i]))
					if bytes.Equal(us[a][i][off:end], us[b][i][off:end]) {
						t.Fatalf("positions %d and %d share column %d's block at byte %d", positions[a], positions[b], i, off)
					}
				}
			}
		}
	}
	for _, c := range []uint32{0, 1, 1<<32 - 2} {
		if lo, hi, next := tweak(c, 0), tweak(c, maxRows-1), tweak(c+1, 0); lo != uint64(c)<<32 || hi >= next {
			t.Fatalf("position %d: tweaks [%d, %d] run into position %d's %d", c, lo, hi, c+1, next)
		}
	}
}

// resumedExtensionAllocs is TestResumedExtensionAllocs' gate.
const resumedExtensionAllocs = 9

func bit01(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestResumedExtensionAllocs pins the allocations of one resumed dial's
// extension at both ends: the receiver At its position, its correction
// matrix, the sender's masked pairs, and the receiver's labels. The column
// PRGs key a schedule on the stack and allocate nothing.
func TestResumedExtensionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var key Block
	if testing.AllocsPerRun(10, func() { new(bbcrypto.Schedule).Expand(&key) }) > 0 {
		t.Skip("this build keys AES through crypto/aes (purego or no assembly kernel), which allocates per schedule")
	}
	const m = 1536 // six fragments' wires
	recv, send := keptBase(t)
	pairs := make([][2]Block, m)
	choices := make([]bool, m)
	sender := send.At(1)
	allocs := testing.AllocsPerRun(20, func() {
		r := recv.At(2)
		u, err := r.Correct(choices)
		if err != nil {
			t.Fatal(err)
		}
		masked, err := sender.Send(u, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Receive(masked, choices); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > resumedExtensionAllocs {
		t.Fatalf("a resumed extension allocates %v times, want at most %d", allocs, resumedExtensionAllocs)
	}
}
