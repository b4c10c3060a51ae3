package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/circuit"
	"repro/internal/garble"
	"repro/internal/obs"
	"repro/internal/ot"
	"repro/internal/ruleprep"
)

// prepWatcher is the trace sink of an endpoint under test. The endpoint
// emits one prep.garble span the moment a circuit exists, so garbled minus
// the records the test has taken off the wire bounds the circuits the
// endpoint holds — checked at every span, without a clock.
type prepWatcher struct {
	t       *testing.T
	bound   int64
	garbled atomic.Int64
	taken   atomic.Int64  // records whose header the test has read
	reached chan struct{} // closed when garbled reaches bound
}

func (w *prepWatcher) Emit(sp obs.Span) {
	if sp.Name != obs.SpanPrepGarble {
		return
	}
	g := w.garbled.Add(1)
	if live := g - w.taken.Load(); live > w.bound {
		w.t.Errorf("endpoint holds %d circuits, want at most %d", live, w.bound)
	}
	if g == w.bound {
		close(w.reached)
	}
}

// servePrepOverPipe runs the endpoint half of rule preparation on one end of
// a net.Pipe and returns the other end and the channel its result arrives on.
func servePrepOverPipe(t *testing.T, w *prepWatcher) (net.Conn, <-chan error) {
	t.Helper()
	ours, theirs := net.Pipe()
	t.Cleanup(func() { ours.Close(); theirs.Close() })
	c := &Conn{
		raw:  theirs,
		rd:   bufio.NewReader(theirs),
		cfg:  ConnConfig{Trace: w, RG: RGMaterial{TagKey: bbcrypto.Block{2}}},
		keys: bbcrypto.SessionKeys{K: bbcrypto.Block{1}, KRand: bbcrypto.Block{3}},
		fr:   obs.StreamFlow(w, 1, obs.PartyServer, obs.SpanCtx{}),
	}
	done := make(chan error, 1)
	go func() { done <- c.servePreparation() }()
	return ours, done
}

func prepStart(n uint32) []byte {
	return binary.BigEndian.AppendUint32([]byte{SubPrepStart}, n)
}

// TestPreparationHoldsBoundedCircuits: a middlebox asks for 64 fragments and
// then stalls. The endpoint must garble GOMAXPROCS circuits ahead of the one
// it is writing and stop — not garble all 64 and hold them — and then stay
// within that bound while the records are drained.
func TestPreparationHoldsBoundedCircuits(t *testing.T) {
	const n = 64
	w := &prepWatcher{t: t, bound: int64(runtime.GOMAXPROCS(0) + 1), reached: make(chan struct{})}
	mb, done := servePrepOverPipe(t, w)
	if err := WriteRecord(mb, RecGarble, prepStart(n)); err != nil {
		t.Fatal(err)
	}

	// Stalled: nothing is read until the endpoint has garbled as far ahead
	// as it may, and then it must not get any further.
	<-w.reached
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	if got := w.garbled.Load(); got != w.bound {
		t.Fatalf("%d circuits garbled against a stalled reader, want %d", got, w.bound)
	}

	for i := 0; i < n; i++ {
		var hdr [5]byte
		if _, err := io.ReadFull(mb, hdr[:]); err != nil {
			t.Fatal(err)
		}
		// The record counts as taken before its body is: the endpoint cannot
		// move on until the body is read, so taken never runs behind what
		// the endpoint has let go of.
		w.taken.Add(1)
		body := make([]byte, binary.BigEndian.Uint32(hdr[1:]))
		if _, err := io.ReadFull(mb, body); err != nil {
			t.Fatal(err)
		}
		if RecordType(hdr[0]) != RecGarble || body[0] != SubCircuit {
			t.Fatalf("record %d: type %d sub %d, want a circuit", i, hdr[0], body[0])
		}
		idx, blobLen := binary.BigEndian.Uint32(body[1:]), binary.BigEndian.Uint32(body[5:])
		if int(idx) != i {
			t.Fatalf("record %d carries fragment %d", i, idx)
		}
		g, err := garble.Unmarshal(body[9 : 9+blobLen])
		if err != nil {
			t.Fatal(err)
		}
		labels, err := UnmarshalBlocks(body[9+blobLen:])
		if err != nil {
			t.Fatal(err)
		}
		if g.Rows != 2 || len(g.Tables) != 2*ruleprep.F().NumAND() || len(labels) != 2*circuit.RoundKeyBits {
			t.Fatalf("record %d: %d rows/gate, %d rows, %d endpoint labels", i, g.Rows, len(g.Tables), len(labels))
		}
	}
	if err := WriteRecord(mb, RecGarble, []byte{SubPrepDone}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("servePreparation: %v", err)
	}
	if got := w.garbled.Load(); got != n {
		t.Fatalf("%d circuits garbled, want %d", got, n)
	}
}

// TestPreparationRefusesWrongBasePointCount: the base phase takes one
// point for the whole batch. None, or one per base OT as an older peer
// sends, ends preparation at the endpoint with a typed error.
func TestPreparationRefusesWrongBasePointCount(t *testing.T) {
	_, msgAs, err := ot.NewExtReceiver()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 128} {
		mb, done := servePrepOverPipe(t, &prepWatcher{t: t, bound: 1 << 30})
		points := make([][]byte, n)
		for i := range points {
			points[i] = msgAs[0]
		}
		if err := WriteRecord(mb, RecGarble, AppendByteSlices([]byte{SubOTMsgA}, points)); err != nil {
			t.Fatal(err)
		}
		var ce *ot.CountError
		if err := <-done; !errors.As(err, &ce) || ce.Got != n {
			t.Fatalf("SubOTMsgA with %d points: %v, want an *ot.CountError", n, err)
		}
	}
}

// TestPreparationRefusesHostileCount: the fragment count arrives in an
// unauthenticated record; one over the cap ends the handshake with a typed
// error before a single circuit is garbled.
func TestPreparationRefusesHostileCount(t *testing.T) {
	for _, n := range []uint32{ruleprep.MaxFragments + 1, 1<<32 - 1} {
		w := &prepWatcher{t: t, bound: 1 << 30, reached: make(chan struct{})}
		mb, done := servePrepOverPipe(t, w)
		if err := WriteRecord(mb, RecGarble, prepStart(n)); err != nil {
			t.Fatal(err)
		}
		if err := <-done; !errors.Is(err, ruleprep.ErrTooManyFragments) {
			t.Fatalf("SubPrepStart(%d): %v, want ErrTooManyFragments", n, err)
		}
		if got := w.garbled.Load(); got != 0 {
			t.Fatalf("SubPrepStart(%d): %d circuits garbled", n, got)
		}
	}
}

// TestPreparationRefusesSecondStart: preparation runs once per handshake. A
// second SubPrepStart after the first run's circuits ends preparation at the
// endpoint with an error instead of garbling a second batch.
func TestPreparationRefusesSecondStart(t *testing.T) {
	w := &prepWatcher{t: t, bound: 1 << 30, reached: make(chan struct{})}
	mb, done := servePrepOverPipe(t, w)
	go func() { _, _ = io.Copy(io.Discard, mb) }()
	go func() {
		for _, rec := range [][]byte{prepStart(1), prepStart(1), {SubPrepDone}} {
			if WriteRecord(mb, RecGarble, rec) != nil {
				return
			}
		}
	}()
	if err := <-done; err == nil {
		t.Fatal("second SubPrepStart accepted")
	}
	if got := w.garbled.Load(); got != 1 {
		t.Fatalf("%d circuits garbled, want 1", got)
	}
}
