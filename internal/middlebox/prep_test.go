package middlebox

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/dpienc"
	"repro/internal/ruleprep"
	"repro/internal/rules"
	"repro/internal/transport"
)

// prepFragments is the fragment count of every preparation run below.
const prepFragments = 2

// newPrep returns the middlebox side of a preparation run of prepFragments
// fragments, none of them authorized (every key comes out nil).
func newPrep(t *testing.T) *ruleprep.Middlebox {
	t.Helper()
	prep, err := ruleprep.NewMiddlebox(ruleprep.Request{
		Fragments: make([]bbcrypto.Block, prepFragments),
		Tags:      make([]bbcrypto.Block, prepFragments),
	})
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// idlePort is the leg a test does not drive: it fails at once, so nothing
// runs beside the leg under test, and Run reports both legs' errors.
type idlePort struct{}

var errNotUnderTest = errors.New("leg not under test")

func (idlePort) Send([]byte) error { return errNotUnderTest }

func (idlePort) Recv(byte, int) ([]byte, error) { return nil, errNotUnderTest }

// legs returns Run's two ports: mbPort on the client's leg when client is
// set, else on the server's, and an idle port on the other.
func legs(mbPort ruleprep.Port, client bool) (ruleprep.Port, ruleprep.Port) {
	if client {
		return mbPort, idlePort{}
	}
	return idlePort{}, mbPort
}

// runPrepAgainst runs the middlebox's side of rule preparation with one leg
// whose endpoint is hand-written: it reads Start, writes the given raw
// bytes, then drains whatever the middlebox sends until the leg closes. The
// other leg is idle. It returns what Run returned, once both sides have
// finished.
func runPrepAgainst(prep *ruleprep.Middlebox, client bool, raw ...[]byte) error {
	ours, theirs := net.Pipe()
	hangGuard(ours, theirs)
	peer := make(chan struct{})
	go func() {
		defer close(peer)
		if _, _, err := transport.ReadRecord(theirs); err != nil {
			return
		}
		for _, b := range raw {
			if _, err := theirs.Write(b); err != nil {
				return
			}
		}
		_, _ = io.Copy(io.Discard, theirs)
	}()
	cPort, sPort := legs(transport.PrepPort{R: bufio.NewReader(ours), W: ours}, client)
	_, _, err := prep.Run(cPort, sPort, ruleprep.Dial{})
	ours.Close()
	<-peer
	theirs.Close()
	return err
}

// hangGuard gives each pipe end a generous deadline. It guards against a
// hang and is not a timing assertion: a peer whose messages no longer fit
// the exchange fails a read or write in a minute instead of at go test's
// timeout, and tests assert on the error's type or text only.
func hangGuard(conns ...net.Conn) {
	for _, c := range conns {
		_ = c.SetDeadline(time.Now().Add(time.Minute))
	}
}

// verdictRecord is a server's SubVerdict record with body v.
func verdictRecord(v byte) []byte { return prepRecord(ruleprep.SubVerdict, []byte{v}) }

// prepRecord frames one preparation message.
func prepRecord(sub byte, msg []byte) []byte {
	body := append([]byte{sub}, msg...)
	return append(transport.AppendHeader(nil, transport.RecGarble, len(body)), body...)
}

// digestRecord is a client's SubDigest record for fragment index.
func digestRecord(index uint32) []byte {
	return prepRecord(ruleprep.SubDigest, append(binary.BigEndian.AppendUint32(nil, index), make([]byte, ruleprep.DigestMsgLen-4)...))
}

// noGoroutineLeak fails the test if the goroutine count does not fall back
// to base once the goroutines a case started have been waited for.
func noGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 1000 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines, %d before", n, base)
	}
}

// TestPrepRefusesMalformedLeg pins DESIGN.md §10's parse-ambiguity rows 5,
// 6 and 13 through the port the middlebox reads each leg with: a client
// digest message of the wrong length (refused from its header), or with an
// index out of order, a leg that sends the other role's message, and a
// server verdict other than the one byte 0 (the middlebox proposes no kept
// state here, so 1 resumes nothing), each end that leg's preparation in an
// error before anything is evaluated, leaking no goroutine. A server's
// cases send the verdict first where they test a later message.
func TestPrepRefusesMalformedLeg(t *testing.T) {
	circuitMsg := binary.BigEndian.AppendUint32(make([]byte, 4), 16) // index 0, a 16-byte blob that is not one
	circuitMsg = append(circuitMsg, make([]byte, 16+4)...)
	cases := []struct {
		name   string
		client bool
		raw    [][]byte
		want   string
	}{
		{"row 5: digest one byte short", true, [][]byte{prepRecord(ruleprep.SubDigest, make([]byte, ruleprep.DigestMsgLen-1))}, "expected prep message"},
		{"row 5: digest one byte long", true, [][]byte{prepRecord(ruleprep.SubDigest, make([]byte, ruleprep.DigestMsgLen+1))}, "exceeds its cap"},
		// A byte either side of the 36-byte digest message that carried no
		// label commitments: as short as any other.
		{"row 5: digest of 35 bytes", true, [][]byte{prepRecord(ruleprep.SubDigest, make([]byte, 35))}, "expected prep message"},
		{"row 5: digest of 37 bytes", true, [][]byte{prepRecord(ruleprep.SubDigest, make([]byte, 37))}, "expected prep message"},
		{"row 5: index out of range", true, [][]byte{digestRecord(prepFragments)}, "bad fragment index"},
		{"row 5: index repeated", true, [][]byte{digestRecord(0), digestRecord(0)}, "bad fragment index"},
		{"row 6: client sends a circuit", true, [][]byte{prepRecord(ruleprep.SubCircuit, circuitMsg)}, "expected prep message"},
		{"row 6: server sends a digest", false, [][]byte{verdictRecord(0), digestRecord(0)}, "expected prep message"},
		{"row 13: verdict 2", false, [][]byte{verdictRecord(2)}, "verdict"},
		{"row 13: verdict 1 where nothing was proposed", false, [][]byte{verdictRecord(1)}, "verdict"},
		{"row 13: verdict of two bytes", false, [][]byte{prepRecord(ruleprep.SubVerdict, []byte{0, 0})}, "exceeds its cap"},
		{"row 13: empty verdict", false, [][]byte{prepRecord(ruleprep.SubVerdict, nil)}, "expected prep message"},
		{"row 13: circuit where the verdict is due", false, [][]byte{prepRecord(ruleprep.SubCircuit, circuitMsg)}, "exceeds its cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prep := newPrep(t)
			base := runtime.NumGoroutine()
			err := runPrepAgainst(prep, tc.client, tc.raw...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run = %v, want an error containing %q", err, tc.want)
			}
			noGoroutineLeak(t, base)
		})
	}
}

// capProbe puts raw bytes on the wire in place of the nth message of
// subtype sub, ending the sender's side there, and measures the allocation
// from just before they are written until the receiver's Recv of that
// message fails.
type capProbe struct {
	sub  byte
	nth  int
	raw  []byte
	conn net.Conn // the sender's end of the leg

	sent          int
	before, after runtime.MemStats
}

// tamperPort is the sending side's port.
type tamperPort struct {
	ruleprep.Port
	p *capProbe
}

func (t tamperPort) Send(msg []byte) error {
	if msg[0] != t.p.sub {
		return t.Port.Send(msg)
	}
	if t.p.sent++; t.p.sent != t.p.nth {
		return t.Port.Send(msg)
	}
	runtime.ReadMemStats(&t.p.before)
	if _, err := t.p.conn.Write(t.p.raw); err != nil {
		return err
	}
	// The sender stops here, so that nothing it would do next (a server
	// garbles after its verdict) runs beside the read being measured.
	return errProbeSent
}

var errProbeSent = errors.New("probe sent")

// watchPort is the receiving side's port.
type watchPort struct {
	ruleprep.Port
	p *capProbe
}

func (w watchPort) Recv(want byte, size int) ([]byte, error) {
	body, err := w.Port.Recv(want, size)
	if err != nil && want == w.p.sub {
		runtime.ReadMemStats(&w.p.after)
	}
	return body, err
}

// probePrep runs rule preparation between the middlebox and one honest
// endpoint of the given role, over net.Pipe and transport.PrepPort on both
// sides, with probe's message replaced on the wire. toEndpoint says which
// way that message goes. The other leg is idle, except for SubDone, which
// the middlebox sends only once both legs are through: then it is a second
// honest endpoint. It returns the error of the side that received the
// replaced message.
func probePrep(t *testing.T, client, toEndpoint bool, probe *capProbe) error {
	t.Helper()
	prep := newPrep(t)
	run := func(c net.Conn, client bool, port func(ruleprep.Port) ruleprep.Port) <-chan error {
		done := make(chan error, 1)
		go func() {
			ep := ruleprep.NewEndpoint(bbcrypto.Block{1}, bbcrypto.Block{2}, bbcrypto.Block{3})
			err := ep.Serve(port(transport.PrepPort{R: bufio.NewReader(c), W: c}), client)
			c.Close()
			done <- err
		}()
		return done
	}
	ours, theirs := net.Pipe()
	defer ours.Close()
	hangGuard(ours, theirs)
	var mbPort ruleprep.Port = transport.PrepPort{R: bufio.NewReader(ours), W: ours}
	epPort := func(p ruleprep.Port) ruleprep.Port { return tamperPort{p, probe} }
	if toEndpoint {
		probe.conn = ours
		mbPort = tamperPort{mbPort, probe}
		epPort = func(p ruleprep.Port) ruleprep.Port { return watchPort{p, probe} }
	} else {
		probe.conn = theirs
		mbPort = watchPort{mbPort, probe}
	}
	epErr := run(theirs, client, epPort)
	cPort, sPort := legs(mbPort, client)
	if probe.sub == ruleprep.SubDone {
		otherMB, otherEP := net.Pipe()
		defer otherMB.Close()
		hangGuard(otherMB, otherEP)
		run(otherEP, !client, func(p ruleprep.Port) ruleprep.Port { return p })
		other := transport.PrepPort{R: bufio.NewReader(otherMB), W: otherMB}
		if client {
			sPort = other
		} else {
			cPort = other
		}
	}
	_, _, mbErr := prep.Run(cPort, sPort, ruleprep.Dial{})
	ours.Close()
	if toEndpoint {
		return <-epErr
	}
	<-epErr
	return mbErr
}

// TestClientPrepRecordCap: every preparation message has one length, known
// from the fragment count, and each party reads every message it receives
// at exactly that length — the middlebox a client's digests, a server's
// circuits and OT replies, an endpoint the middlebox's messages. A header
// announcing 64 MiB in its place is a *transport.RecordCapError at
// 1 + ruleprep.BodyLen before the body is allocated, and a body one byte
// short the typed expected-message error.
func TestClientPrepRecordCap(t *testing.T) {
	for _, tc := range []struct {
		name               string
		client, toEndpoint bool
		sub                byte
	}{
		{"client", true, false, ruleprep.SubDigest},
		{"server", false, false, ruleprep.SubCircuit},
		{"server Verdict", false, false, ruleprep.SubVerdict},
		{"server MsgB", false, false, ruleprep.SubMsgB},
		{"server Masked", false, false, ruleprep.SubMasked},
		{"endpoint Start", false, true, ruleprep.SubResume}, // the server's Start
		{"client Start", true, true, ruleprep.SubStart},
		{"endpoint MsgA", false, true, ruleprep.SubMsgA},
		{"endpoint U", false, true, ruleprep.SubU},
		{"endpoint Done", true, true, ruleprep.SubDone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			size := ruleprep.BodyLen(tc.sub, prepFragments)
			nth := 1
			if tc.sub == ruleprep.SubDigest || tc.sub == ruleprep.SubCircuit {
				nth = prepFragments // the last, so that no garbling runs beside the read
			}
			probe := &capProbe{sub: tc.sub, nth: nth, raw: transport.AppendHeader(nil, transport.RecGarble, 64<<20)}
			err := probePrep(t, tc.client, tc.toEndpoint, probe)
			var capErr *transport.RecordCapError
			if !errors.As(err, &capErr) || capErr.Cap != 1+size {
				t.Fatalf("64 MiB header for message %d: %v, want a *transport.RecordCapError at its cap %d", tc.sub, err, 1+size)
			}
			if alloc := probe.after.TotalAlloc - probe.before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("%d bytes allocated reading a 64 MiB header, want < 1 MiB", alloc)
			}

			short := transport.AppendHeader(nil, transport.RecGarble, size)
			if size > 0 {
				short = append(append(short, tc.sub), make([]byte, size-1)...)
			}
			probe = &capProbe{sub: tc.sub, nth: nth, raw: short}
			err = probePrep(t, tc.client, tc.toEndpoint, probe)
			var msgErr *ruleprep.MessageError
			if !errors.As(err, &msgErr) || msgErr.Want != tc.sub || msgErr.Size != size {
				t.Fatalf("message %d one byte short: %v, want a *ruleprep.MessageError", tc.sub, err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("expected prep message %d", tc.sub)) {
				t.Fatalf("message %d one byte short: %q does not name the expected message", tc.sub, err)
			}
		})
	}
}

// errLog is a slog handler that keeps the "err" attribute of every record.
type errLog struct {
	mu   sync.Mutex
	errs []error
}

func (*errLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *errLog) WithAttrs([]slog.Attr) slog.Handler     { return l }
func (l *errLog) WithGroup(string) slog.Handler          { return l }

func (l *errLog) Handle(_ context.Context, r slog.Record) error {
	r.Attrs(func(a slog.Attr) bool {
		if err, ok := a.Value.Any().(error); ok && a.Key == "err" {
			l.mu.Lock()
			l.errs = append(l.errs, err)
			l.mu.Unlock()
		}
		return true
	})
	return nil
}

// TestClientOTMessageAfterDigests: the client's leg ends at its digests, so
// an OT message a client sends after them is not read by rule preparation,
// which completes; it is the first record of the data phase, which carries
// no preparation record, and forwarding ends in a *transport.RecordCapError
// with Cap -1 before its body is read.
func TestClientOTMessageAfterDigests(t *testing.T) {
	var log errLog
	mb := helloMiddlebox(t, slog.New(&log))
	cOurs, cTheirs := net.Pipe()
	sOurs, sTheirs := net.Pipe()
	defer func() { cTheirs.Close(); sTheirs.Close() }()
	hangGuard(cTheirs, sTheirs) // Interpose sets and clears the middlebox's own
	hello := transport.MarshalHello(transport.Hello{PublicKey: make([]byte, 32), Protocol: dpienc.ProtocolII})
	endpoint := func(c net.Conn, client bool) <-chan error {
		done := make(chan error, 1)
		go func() {
			rd := bufio.NewReader(c)
			var err error
			if client {
				if err = transport.WriteRecord(c, transport.RecHello, hello); err == nil {
					_, err = transport.ReadHello(rd, transport.RecHelloReply)
				}
			} else if _, err = transport.ReadHello(rd, transport.RecHello); err == nil {
				err = transport.WriteRecord(c, transport.RecHelloReply, hello)
			}
			if err == nil {
				var p ruleprep.Port = transport.PrepPort{R: rd, W: c}
				if client {
					p = &otAfterDigests{Port: p, c: c}
				}
				err = ruleprep.NewEndpoint(bbcrypto.Block{1}, bbcrypto.Block{2}, bbcrypto.Block{3}).Serve(p, client)
			}
			done <- err
			_, _ = io.Copy(io.Discard, rd)
		}()
		return done
	}
	clientDone, serverDone := endpoint(cTheirs, true), endpoint(sTheirs, false)
	if err := mb.Interpose(cOurs, sOurs); err != nil {
		t.Fatalf("Interpose = %v, want rule preparation to complete", err)
	}
	if err := <-clientDone; err != nil {
		t.Fatalf("client Serve = %v, want nil at Done", err)
	}
	if err := <-serverDone; err != nil {
		t.Fatalf("server Serve = %v", err)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	for _, err := range log.errs {
		var capErr *transport.RecordCapError
		if errors.As(err, &capErr) && capErr.Type == transport.RecGarble && capErr.Cap == -1 {
			return
		}
	}
	t.Fatalf("logged errors %v, want a *transport.RecordCapError for a RecGarble record with Cap -1", log.errs)
}

// otAfterDigests is a client's port that writes a base-OT response record,
// the message a client's OT leg sent after its digests, just before it
// waits for the first message after them. It writes on its own goroutine:
// net.Pipe holds the writer until the record is read.
type otAfterDigests struct {
	ruleprep.Port
	c    net.Conn
	sent bool
}

func (p *otAfterDigests) Recv(want byte, size int) ([]byte, error) {
	if want != ruleprep.SubStart && !p.sent {
		p.sent = true
		msgB := make([]byte, 1+ruleprep.BodyLen(ruleprep.SubMsgB, 1))
		msgB[0] = ruleprep.SubMsgB
		go func() { _ = transport.WriteRecord(p.c, transport.RecGarble, msgB) }()
	}
	return p.Port.Recv(want, size)
}

// helloMiddlebox is a one-rule middlebox for driving the hello exchange
// over pipes, logging to logger if it is set.
func helloMiddlebox(t *testing.T, logger *slog.Logger) *Middlebox {
	t.Helper()
	g, err := rules.NewGenerator("HelloRG")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rules.Parse("hello", `alert tcp any any -> any any (content:"attackkw"; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := New(Config{Ruleset: g.Sign(rs), Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mb.Close() })
	return mb
}

// TestHelloRecordCap: hellos arrive unauthenticated, so a header announcing
// 64 MiB where the client's hello or the server's reply is due ends the
// interposition in a *transport.RecordCapError before the body is
// allocated.
func TestHelloRecordCap(t *testing.T) {
	mb := helloMiddlebox(t, nil)
	hello := transport.MarshalHello(transport.Hello{PublicKey: make([]byte, 32), Protocol: dpienc.ProtocolII})
	for _, tc := range []struct {
		name           string
		client, server []byte // what each peer writes
	}{
		{"client hello", transport.AppendHeader(nil, transport.RecHello, 64<<20), nil},
		{"server hello", append(transport.AppendHeader(nil, transport.RecHello, len(hello)), hello...),
			transport.AppendHeader(nil, transport.RecHelloReply, 64<<20)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cOurs, cTheirs := net.Pipe()
			sOurs, sTheirs := net.Pipe()
			defer func() { cOurs.Close(); cTheirs.Close(); sOurs.Close(); sTheirs.Close() }()
			go func() { _, _ = cTheirs.Write(tc.client) }()
			go func() {
				if tc.server != nil {
					// The forwarded client hello, then the reply.
					if _, _, err := transport.ReadRecord(sTheirs); err == nil {
						_, _ = sTheirs.Write(tc.server)
					}
				}
			}()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, _, _, err := mb.interposeHello(newLeg(cOurs), newLeg(sOurs))
			runtime.ReadMemStats(&after)
			var capErr *transport.RecordCapError
			if !errors.As(err, &capErr) || int64(capErr.Len) != 64<<20 {
				t.Fatalf("interposeHello = %v, want a *transport.RecordCapError", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("%d bytes allocated reading a 64 MiB hello header, want < 1 MiB", alloc)
			}
		})
	}
}

// TestMalformedHelloEndsConnection: the middlebox forwards only the hellos
// it parsed (DESIGN.md §10 rows 9 and 14). A client hello with a trailing
// byte, MBPresent 2, or a mode or protocol no party runs ends the
// connection as a malformed-hello error before the server receives
// anything, and a server reply that does not parse ends it before the
// client receives one. Nothing panics: a mode 7 hello once crashed the
// middlebox process in rule preparation.
func TestMalformedHelloEndsConnection(t *testing.T) {
	mb := helloMiddlebox(t, nil)
	valid := transport.Hello{PublicKey: make([]byte, 32), Protocol: dpienc.ProtocolII}
	hello := transport.MarshalHello(valid)
	trailing := append(slices.Clone(hello), 0)
	mbPresent2 := slices.Clone(hello)
	mbPresent2[len(hello)-1] = 2
	mode7, protocol9 := valid, valid
	mode7.Mode, protocol9.Protocol = 7, 9
	for _, tc := range []struct {
		name          string
		client, reply []byte // the hello bodies each peer sends
	}{
		{"client hello with a trailing byte", trailing, nil},
		{"client hello with MBPresent 2", mbPresent2, nil},
		{"client hello with mode 7", transport.MarshalHello(mode7), nil},
		{"client hello with protocol 9", transport.MarshalHello(protocol9), nil},
		{"server reply with a trailing byte", hello, trailing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cOurs, cTheirs := net.Pipe()
			sOurs, sTheirs := net.Pipe()
			defer func() { cTheirs.Close(); sTheirs.Close() }()
			// Each peer reports whether a record reached it.
			clientGot, serverGot := make(chan bool, 1), make(chan bool, 1)
			go func() {
				if transport.WriteRecord(cTheirs, transport.RecHello, tc.client) == nil {
					_, _, err := transport.ReadRecord(cTheirs)
					clientGot <- err == nil
				} else {
					clientGot <- false
				}
			}()
			go func() {
				_, _, err := transport.ReadRecord(sTheirs)
				serverGot <- err == nil
				if err == nil && tc.reply != nil {
					_ = transport.WriteRecord(sTheirs, transport.RecHelloReply, tc.reply)
				}
			}()
			before := mb.Stats().ConnErrors
			err := mb.Interpose(cOurs, sOurs)
			cOurs.Close()
			sOurs.Close()
			if err == nil || !strings.Contains(err.Error(), "malformed hello") {
				t.Fatalf("Interpose = %v, want a malformed-hello error", err)
			}
			if n := mb.Stats().ConnErrors - before; n != 1 {
				t.Fatalf("ConnErrors rose by %d, want 1", n)
			}
			if <-clientGot {
				t.Fatal("the client received a hello")
			}
			if got := <-serverGot; got != (tc.reply != nil) {
				t.Fatalf("server received a hello: %v, want %v", got, tc.reply != nil)
			}
		})
	}
}
