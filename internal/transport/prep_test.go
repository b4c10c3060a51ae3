package transport

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/circuit"
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

// The keys every endpoint under test prepares with.
var (
	prepKeys   = bbcrypto.SessionKeys{K: bbcrypto.Block{1}, KRand: bbcrypto.Block{3}}
	prepTagKey = bbcrypto.Block{2}
)

// prepOverPipe runs an endpoint's half of rule preparation, as a client or
// a server, on one end of a net.Pipe through PrepPort, as a Conn's
// handshake does, and returns the other end and the channel its result
// arrives on.
func prepOverPipe(t *testing.T, w *prepWatcher, client bool) (net.Conn, <-chan error) {
	t.Helper()
	ours, theirs := net.Pipe()
	t.Cleanup(func() { ours.Close(); theirs.Close() })
	// A guard, not a timing assertion: a peer whose messages no longer fit
	// the exchange fails its read or write here instead of hanging until
	// go test's timeout. Tests assert on the error's type only.
	hangGuard(ours, theirs)
	ep := ruleprep.NewEndpoint(prepKeys.K, prepTagKey, prepKeys.KRand)
	ep.SetTrace(obs.StreamFlow(w, 1, obs.PartyServer, obs.SpanCtx{}), obs.SpanCtx{})
	done := make(chan error, 1)
	go func() { done <- ep.Serve(PrepPort{R: bufio.NewReader(theirs), W: theirs}, client) }()
	return ours, done
}

// hangGuard gives each pipe end a generous deadline.
func hangGuard(conns ...net.Conn) {
	for _, c := range conns {
		_ = c.SetDeadline(time.Now().Add(time.Minute))
	}
}

// prepStart is the middlebox's first message to an endpoint announcing n
// fragments: a client's Start, or a server's Resume proposing no kept
// state.
func prepStart(n uint32, client bool) []byte {
	if client {
		return binary.BigEndian.AppendUint32([]byte{ruleprep.SubStart}, n)
	}
	msg := binary.BigEndian.AppendUint32([]byte{ruleprep.SubResume}, n)
	return append(msg, make([]byte, ruleprep.BodyLen(ruleprep.SubResume, 0)-4)...)
}

// readVerdict reads a server's verdict record and fails the test unless it
// is a full base phase, all a server answers a Resume proposing nothing.
func readVerdict(t *testing.T, mb net.Conn) {
	t.Helper()
	typ, body, err := ReadRecord(mb)
	if err != nil {
		t.Fatal(err)
	}
	if typ != RecGarble || !bytes.Equal(body, []byte{ruleprep.SubVerdict, 0}) {
		t.Fatalf("record %d %x where the verdict is due, want a base phase", typ, body)
	}
}

// TestPreparationHoldsBoundedCircuits: a middlebox asks a server for 64
// fragments and then stalls. The server must garble GOMAXPROCS circuits
// ahead of the one it is writing and stop — not garble all 64 and hold them
// — and then stay within that bound while the records are drained. Each
// record is the fragment's circuit message, and a Done in place of the OT
// phase is refused.
func TestPreparationHoldsBoundedCircuits(t *testing.T) {
	checkBoundedPreparation(t, false, func(i int, sub byte, msg []byte) {
		if sub != ruleprep.SubCircuit {
			t.Fatalf("record %d: sub %d, want a circuit", i, sub)
		}
		job, err := ruleprep.ParseCircuitMsg(msg)
		if err != nil {
			t.Fatal(err)
		}
		if job.Index != i {
			t.Fatalf("record %d carries fragment %d", i, job.Index)
		}
		if g := job.G; g.Rows != 2 || len(g.Tables) != 2*ruleprep.F().NumAND() || len(job.EndpointLabels) != 2*circuit.RoundKeyBits {
			t.Fatalf("record %d: %d rows/gate, %d rows, %d endpoint labels", i, g.Rows, len(g.Tables), len(job.EndpointLabels))
		}
	})
}

// TestClientPreparationHoldsBoundedCircuits is the client's twin: the same
// garbling bound, and each record is the fragment's digest message, the
// SHA-256 of the circuit message a server with the same keys sends and the
// commitments to that server's OT label pairs. Those records are all the
// client sends: its Serve returns nil at the Done that follows them.
func TestClientPreparationHoldsBoundedCircuits(t *testing.T) {
	server := ruleprep.NewEndpoint(prepKeys.K, prepTagKey, prepKeys.KRand)
	checkBoundedPreparation(t, true, func(i int, sub byte, msg []byte) {
		if sub != ruleprep.SubDigest {
			t.Fatalf("record %d: sub %d, want a digest", i, sub)
		}
		want, err := server.Garble(i)
		if err != nil {
			t.Fatal(err)
		}
		want.Digest = sha256.Sum256(want.AppendCircuitMsg(nil))
		if !bytes.Equal(msg, want.AppendDigestMsg(nil)) {
			t.Fatalf("record %d is not the digest message of the server's fragment %d", i, i)
		}
	})
}

// checkBoundedPreparation asks an endpoint in the given role for 64
// fragments, stalls until it has garbled as far ahead as it may, checks it
// gets no further, and then drains its records through check, holding the
// endpoint to GOMAXPROCS + 1 live circuits throughout. It then sends Done,
// which ends a client's run in nil (so it wrote nothing more: net.Pipe
// holds a writer until its bytes are read) and a server's, where the
// base-OT message is due, in a *ruleprep.MessageError.
func checkBoundedPreparation(t *testing.T, client bool, check func(i int, sub byte, msg []byte)) {
	const n = 64
	w := &prepWatcher{t: t, bound: int64(runtime.GOMAXPROCS(0) + 1), reached: make(chan struct{})}
	mb, done := prepOverPipe(t, w, client)
	if err := WriteRecord(mb, RecGarble, prepStart(n, client)); err != nil {
		t.Fatal(err)
	}
	if !client {
		readVerdict(t, mb)
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
		if RecordType(hdr[0]) != RecGarble || len(body) < 1 {
			t.Fatalf("record %d: type %d, %d bytes", i, hdr[0], len(body))
		}
		check(i, body[0], body[1:])
	}
	// A server refuses the record from its header and never reads the
	// body, so the write only ends when the pipe closes.
	go func() { _ = WriteRecord(mb, RecGarble, []byte{ruleprep.SubDone}) }()
	err := <-done
	var msgErr *ruleprep.MessageError
	if client && err != nil {
		t.Fatalf("client Serve at Done after its digests: %v, want nil", err)
	}
	if !client && (!errors.As(err, &msgErr) || msgErr.Want != ruleprep.SubMsgA) {
		t.Fatalf("Serve after a Done in place of the OT phase: %v, want a *ruleprep.MessageError for the base-OT message", err)
	}
	if got := w.garbled.Load(); got != n {
		t.Fatalf("%d circuits garbled, want %d", got, n)
	}
}

// TestPreparationRefusesWrongBasePointCount: the base phase takes one
// point for the whole batch, and the base-OT message is that point's 65
// bytes and no more. After Start and the circuit, none is a wrong-length
// error and one per base OT, as an older peer sends, a cap error, each
// ending preparation at the endpoint before the points are parsed.
func TestPreparationRefusesWrongBasePointCount(t *testing.T) {
	_, msgAs, err := ot.NewExtReceiver()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 128} {
		mb, done := prepOverPipe(t, &prepWatcher{t: t, bound: 1 << 30}, false)
		if err := WriteRecord(mb, RecGarble, prepStart(1, false)); err != nil {
			t.Fatal(err)
		}
		readVerdict(t, mb)
		if _, _, err := ReadRecord(mb); err != nil {
			t.Fatal(err)
		}
		msg := []byte{ruleprep.SubMsgA}
		for i := 0; i < n; i++ {
			msg = append(msg, msgAs[0]...)
		}
		go func() { _ = WriteRecord(mb, RecGarble, msg) }()
		err := <-done
		var msgErr *ruleprep.MessageError
		var capErr *RecordCapError
		if n == 0 && !errors.As(err, &msgErr) || n > 0 && !errors.As(err, &capErr) {
			t.Fatalf("SubMsgA with %d points: %v, want a wrong-length error for none, a cap error for more", n, err)
		}
	}
}

// TestPreparationRefusesHostileCount: the fragment count arrives in an
// unauthenticated record; one over the cap ends the handshake with a typed
// error before a single circuit is garbled.
func TestPreparationRefusesHostileCount(t *testing.T) {
	for _, n := range []uint32{ruleprep.MaxFragments + 1, 1<<32 - 1} {
		w := &prepWatcher{t: t, bound: 1 << 30, reached: make(chan struct{})}
		mb, done := prepOverPipe(t, w, false)
		if err := WriteRecord(mb, RecGarble, prepStart(n, false)); err != nil {
			t.Fatal(err)
		}
		if err := <-done; !errors.Is(err, ruleprep.ErrTooManyFragments) {
			t.Fatalf("Start(%d): %v, want ErrTooManyFragments", n, err)
		}
		if got := w.garbled.Load(); got != 0 {
			t.Fatalf("Start(%d): %d circuits garbled", n, got)
		}
	}
}

// TestPreparationRefusesSecondStart: preparation runs once per handshake. A
// second Start after the first run's circuits, where the base-OT message is
// due, ends preparation at the endpoint with an error instead of garbling a
// second batch.
func TestPreparationRefusesSecondStart(t *testing.T) {
	w := &prepWatcher{t: t, bound: 1 << 30, reached: make(chan struct{})}
	mb, done := prepOverPipe(t, w, false)
	go func() { _, _ = io.Copy(io.Discard, mb) }()
	go func() {
		for _, rec := range [][]byte{prepStart(1, false), prepStart(1, false), {ruleprep.SubDone}} {
			if WriteRecord(mb, RecGarble, rec) != nil {
				return
			}
		}
	}()
	if err := <-done; err == nil {
		t.Fatal("second Start accepted")
	}
	if got := w.garbled.Load(); got != 1 {
		t.Fatalf("%d circuits garbled, want 1", got)
	}
}
