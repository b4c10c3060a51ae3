package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/dpienc"
	"repro/internal/obs"
	"repro/internal/tokenize"
)

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("hello record")
	if err := WriteRecord(&buf, RecData, body); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != RecData || !bytes.Equal(got, body) {
		t.Fatalf("round trip: %d %q", typ, got)
	}
}

func TestRecordRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	hdr := []byte{byte(RecData), 0xFF, 0xFF, 0xFF, 0xFF}
	buf.Write(hdr)
	if _, _, err := ReadRecord(&buf); err == nil {
		t.Fatal("oversize record accepted")
	}
	if err := WriteRecord(io.Discard, RecData, make([]byte, MaxRecordLen+1)); err == nil {
		t.Fatal("oversize write accepted")
	}
}

func TestHelloRoundTripAndMBFlag(t *testing.T) {
	h := Hello{
		PublicKey: bytes.Repeat([]byte{7}, 32),
		Protocol:  dpienc.ProtocolIII,
		Mode:      byte(tokenize.Delimiter),
		Salt0:     12345,
	}
	for _, mb := range []bool{false, true} {
		h.MBPresent = mb
		got, err := UnmarshalHello(MarshalHello(h))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.PublicKey, h.PublicKey) || got.Protocol != h.Protocol ||
			got.Mode != h.Mode || got.Salt0 != h.Salt0 || got.MBPresent != mb {
			t.Fatalf("hello round trip: %+v", got)
		}
	}
}

func TestHelloTraceExtension(t *testing.T) {
	h := Hello{
		PublicKey: bytes.Repeat([]byte{9}, 32),
		Protocol:  dpienc.ProtocolI,
		Salt0:     42,
		MBPresent: true,
		HasTrace:  true,
		TraceID:   [16]byte{0xAA, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0xBB},
		TraceSpan: 0xDEADBEEF,
	}
	got, err := UnmarshalHello(MarshalHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if !got.MBPresent || !got.HasTrace || got.TraceID != h.TraceID || got.TraceSpan != h.TraceSpan {
		t.Fatalf("trace extension round trip: %+v", got)
	}
}

func TestHelloSampledExtension(t *testing.T) {
	h := Hello{
		PublicKey: bytes.Repeat([]byte{9}, 32),
		Protocol:  dpienc.ProtocolII,
		Salt0:     42,
		MBPresent: true,
		HasTrace:  true,
		TraceID:   [16]byte{0xAA, 15: 0xBB},
		TraceSpan: 7,
		HasSample: true,
		Sampled:   true,
	}
	got, err := UnmarshalHello(MarshalHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if !got.MBPresent || !got.HasTrace || !got.HasSample || !got.Sampled {
		t.Fatalf("sampling extension round trip: %+v", got)
	}
	h.Sampled = false
	got, err = UnmarshalHello(MarshalHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasSample || got.Sampled {
		t.Fatalf("negative decision round trip: %+v", got)
	}
	// The decision only rides along with a trace extension.
	got, err = UnmarshalHello(MarshalHello(Hello{PublicKey: h.PublicKey, Protocol: h.Protocol, HasSample: true, Sampled: true}))
	if err != nil {
		t.Fatal(err)
	}
	if got.HasSample {
		t.Fatalf("sampling extension without trace context: %+v", got)
	}
}

// TestAppendHelloTrace: the first party to join a hello appends its trace
// context, which crosses the wire with the rest of the hello, and every
// later party adopts that context without rewriting the hello.
func TestAppendHelloTrace(t *testing.T) {
	h := Hello{PublicKey: bytes.Repeat([]byte{7}, 32), Protocol: dpienc.ProtocolII, Salt0: 5}
	ctx, head, root := h.JoinTrace(nil)
	if !root || head || !ctx.Valid() || !h.HasTrace || h.HasSample {
		t.Fatalf("first join: ctx %v head %v root %v, hello %+v", ctx, head, root, h)
	}
	if h.TraceID != ctx.Trace || h.TraceSpan != ctx.Span {
		t.Fatalf("hello names %x/%d, context %x/%d", h.TraceID, h.TraceSpan, ctx.Trace, ctx.Span)
	}
	got, err := UnmarshalHello(MarshalHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasTrace || got.TraceID != h.TraceID || got.TraceSpan != h.TraceSpan || got.Salt0 != 5 {
		t.Fatalf("joined hello across the wire: %+v", got)
	}
	before := MarshalHello(got)
	ctx2, _, root := got.JoinTrace(nil)
	if root || ctx2.Trace != ctx.Trace || ctx2.Span != ctx.Span {
		t.Fatalf("later join: ctx %v root %v, want the first context %v", ctx2, root, ctx)
	}
	if !bytes.Equal(MarshalHello(got), before) {
		t.Fatal("a later join rewrote the trace context")
	}
}

// TestAppendHelloSampled: the first party with a recorder settles the
// hello's head-sampling decision, and every later party adopts it — first
// writer wins, so every party downstream of the decider sees one verdict.
func TestAppendHelloSampled(t *testing.T) {
	yes := obs.NewRecorder(obs.RecorderConfig{Sample: 1})
	no := obs.NewRecorder(obs.RecorderConfig{Sample: 0})

	// A party without a recorder leaves the decision unset, so a later
	// party with one decides.
	h := Hello{Protocol: dpienc.ProtocolII}
	ctx, _, _ := h.JoinTrace(nil)
	if h.HasSample {
		t.Fatalf("join without a recorder wrote a decision: %+v", h)
	}
	ctx2, head, root := h.JoinTrace(yes)
	if root || !head || ctx2.Trace != ctx.Trace || ctx2.Span != ctx.Span || !h.HasSample || !h.Sampled {
		t.Fatalf("second join: ctx %v head %v root %v, hello %+v", ctx2, head, root, h)
	}
	got, err := UnmarshalHello(MarshalHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasTrace || got.TraceSpan != h.TraceSpan || !got.HasSample || !got.Sampled {
		t.Fatalf("decided hello across the wire: %+v", got)
	}
	// A later party's recorder does not rewrite the decision, and one
	// without a recorder reads it.
	before := MarshalHello(h)
	for _, rec := range []*obs.Recorder{no, nil} {
		if _, head, root := h.JoinTrace(rec); root || !head {
			t.Fatalf("later join (recorder %v): head %v root %v", rec != nil, head, root)
		}
		if !bytes.Equal(MarshalHello(h), before) {
			t.Fatal("a later join rewrote the decision")
		}
	}

	// A first party with a recorder writes both; a negative decision sticks.
	var g Hello
	if _, head, root := g.JoinTrace(no); !root || head || !g.HasSample || g.Sampled {
		t.Fatalf("first join with a recorder: head %v root %v, hello %+v", head, root, g)
	}
	if _, head, _ := g.JoinTrace(yes); head || g.Sampled {
		t.Fatal("a later recorder rewrote a negative decision")
	}
}

func TestHelloRejectsShort(t *testing.T) {
	for _, data := range [][]byte{nil, {32}, {4, 1, 2}} {
		if _, err := UnmarshalHello(data); err == nil {
			t.Fatalf("short hello %v accepted", data)
		}
	}
}

func TestTokensRoundTrip(t *testing.T) {
	toks := []dpienc.EncryptedToken{
		{C1: dpienc.Ciphertext{1, 2, 3, 4, 5}, Offset: 10},
		{C1: dpienc.Ciphertext{9, 8, 7, 6, 5}, Offset: 999999},
	}
	for _, protoIII := range []bool{false, true} {
		if protoIII {
			toks[0].C2[3] = 0xAB
		}
		enc := MarshalTokens(toks, protoIII)
		got, err := UnmarshalTokens(enc, protoIII)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != toks[0] || got[1] != toks[1] {
			t.Fatalf("protoIII=%v round trip mismatch", protoIII)
		}
		if _, err := UnmarshalTokens(enc[:len(enc)-1], protoIII); err == nil {
			t.Fatal("truncated tokens accepted")
		}
	}
}

// pair dials a loopback TCP pair and runs client/server handshakes
// concurrently (no middlebox).
func pair(t *testing.T, cfg ConnConfig) (*Conn, *Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type result struct {
		c   *Conn
		err error
	}
	ch := make(chan result, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			ch <- result{nil, err}
			return
		}
		c, err := Server(raw, cfg)
		ch <- result{c, err}
	}()
	client, err := Dial(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { client.Close(); r.c.Close() })
	return client, r.c
}

func TestDirectConnRoundTrip(t *testing.T) {
	for _, cfg := range []core.Config{
		{Protocol: dpienc.ProtocolII, Mode: tokenize.Delimiter},
		{Protocol: dpienc.ProtocolIII, Mode: tokenize.Window},
	} {
		client, server := pair(t, ConnConfig{Core: cfg})
		if client.MBPresent() || server.MBPresent() {
			t.Fatal("MBPresent set on a direct connection")
		}
		msg := []byte("GET /login.php?user=alice HTTP/1.1\r\nHost: example.com\r\n\r\n")
		done := make(chan error, 1)
		go func() {
			if _, err := client.Write(msg); err != nil {
				done <- err
				return
			}
			done <- client.CloseWrite()
		}()
		got, err := io.ReadAll(server)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("cfg %+v: got %q", cfg, got)
		}
	}
}

func TestConnSharedKeys(t *testing.T) {
	client, server := pair(t, ConnConfig{Core: core.DefaultConfig()})
	if client.SessionKeys() != server.SessionKeys() {
		t.Fatal("handshake did not agree on session keys")
	}
}

func TestBinaryWriteRoundTrip(t *testing.T) {
	client, server := pair(t, ConnConfig{Core: core.DefaultConfig()})
	text := []byte("header: text part\r\n\r\n")
	binaryData := bytes.Repeat([]byte{0xDE, 0xAD, 0x00, 0xFF}, 4096)
	done := make(chan error, 1)
	go func() {
		if _, err := client.Write(text); err != nil {
			done <- err
			return
		}
		if _, err := client.WriteBinary(binaryData); err != nil {
			done <- err
			return
		}
		done <- client.CloseWrite()
	}()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(append([]byte{}, text...), binaryData...)) {
		t.Fatalf("got %d bytes, want %d", len(got), len(text)+len(binaryData))
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	client, server := pair(t, ConnConfig{Core: core.DefaultConfig()})
	req := []byte("request words flowing one way")
	resp := []byte("response words flowing back")
	errs := make(chan error, 2)
	go func() {
		if _, err := client.Write(req); err != nil {
			errs <- err
			return
		}
		if err := client.CloseWrite(); err != nil {
			errs <- err
			return
		}
		got, err := io.ReadAll(client)
		if err != nil {
			errs <- err
			return
		}
		if !bytes.Equal(got, resp) {
			errs <- io.ErrUnexpectedEOF
			return
		}
		errs <- nil
	}()
	go func() {
		got, err := io.ReadAll(server)
		if err != nil {
			errs <- err
			return
		}
		if !bytes.Equal(got, req) {
			errs <- io.ErrUnexpectedEOF
			return
		}
		if _, err := server.Write(resp); err != nil {
			errs <- err
			return
		}
		errs <- server.CloseWrite()
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestLargeTransferWithSaltResets(t *testing.T) {
	client, server := pair(t, ConnConfig{Core: core.DefaultConfig()})
	// Sending more than the default 1 MiB reset interval exercises the
	// counter-table reset and the validator's deterministic re-sync.
	payload := bytes.Repeat([]byte("words and more words across resets "), 40000) // ~1.4 MB
	done := make(chan error, 1)
	go func() {
		if _, err := client.Write(payload); err != nil {
			done <- err
			return
		}
		done <- client.CloseWrite()
	}()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("large transfer corrupted: %d vs %d bytes", len(got), len(payload))
	}
}

func TestTamperedRecordRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := ConnConfig{Core: core.DefaultConfig()}
	serverErr := make(chan error, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			serverErr <- err
			return
		}
		s, err := Server(raw, cfg)
		if err != nil {
			serverErr <- err
			return
		}
		_, err = io.ReadAll(s)
		serverErr <- err
	}()
	// A man-in-the-middle that flips data bytes must be caught by GCM.
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tamper := &tamperConn{Conn: raw}
	client, err := Client(tamper, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tamper.arm = true
	client.Write([]byte("some words that will be flipped"))
	client.CloseWrite()
	if err := <-serverErr; err == nil {
		t.Fatal("tampered record not rejected")
	}
	client.Close()
}

// tamperConn flips a byte in the first large write after arming.
type tamperConn struct {
	net.Conn
	arm   bool
	fired bool
}

func (tc *tamperConn) Write(p []byte) (int, error) {
	if tc.arm && !tc.fired && len(p) > 20 {
		tc.fired = true
		q := append([]byte(nil), p...)
		q[len(q)-1] ^= 0xFF
		return tc.Conn.Write(q)
	}
	return tc.Conn.Write(p)
}

func TestBlocksRoundTrip(t *testing.T) {
	in := []bbcrypto.Block{{1, 2}, {3}, {0xFF}}
	enc := MarshalBlocks(in)
	got, err := UnmarshalBlocks(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != in[0] || got[2] != in[2] {
		t.Fatalf("blocks round trip: %v", got)
	}
	if _, err := UnmarshalBlocks(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated blocks accepted")
	}
	if _, err := UnmarshalBlocks([]byte{1}); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestForgedTokensRejected(t *testing.T) {
	// A token channel that does not match the payload is evidence of an
	// evading sender: the receiver's §3.4 validation must refuse the data.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := ConnConfig{Core: core.DefaultConfig()}
	readErr := make(chan error, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			readErr <- err
			return
		}
		s, err := Server(raw, cfg)
		if err != nil {
			readErr <- err
			return
		}
		defer s.Close()
		_, err = io.ReadAll(s)
		readErr <- err
	}()
	client, err := Dial(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Forge the token channel by writing a bogus token record directly.
	if err := WriteRecord(client.raw, RecTokens, MarshalTokens([]dpienc.EncryptedToken{{Offset: 1}}, false)); err != nil {
		t.Fatal(err)
	}
	client.Write([]byte("payload anyway"))
	client.CloseWrite()
	if err := <-readErr; !errors.Is(err, core.ErrTokenMismatch) {
		t.Fatalf("server read = %v, want core.ErrTokenMismatch", err)
	}
}

// TestFailedHandshakeIsRecorded: a client whose server reads its hello and
// hangs up records its connection span, carrying the error, whether it
// streams to Trace or keeps a flight recorder that samples nothing.
func TestFailedHandshakeIsRecorded(t *testing.T) {
	for name, cfg := range map[string]func(obs.Sink) ConnConfig{
		"trace": func(s obs.Sink) ConnConfig { return ConnConfig{Core: core.DefaultConfig(), Trace: s} },
		"recorder": func(s obs.Sink) ConnConfig {
			return ConnConfig{Core: core.DefaultConfig(), Recorder: obs.NewRecorder(obs.RecorderConfig{Sink: s})}
		},
	} {
		t.Run(name, func(t *testing.T) {
			cli, srv := net.Pipe()
			defer cli.Close()
			go func() {
				defer srv.Close()
				_, _, _ = ReadRecord(bufio.NewReader(srv))
			}()
			sink := &obs.CollectSink{}
			if _, err := Client(cli, cfg(sink)); err == nil {
				t.Fatal("handshake succeeded against a server that hung up")
			}
			spans := sink.Spans()
			if len(spans) != 1 || spans[0].Name != obs.SpanConn || spans[0].Err == "" {
				t.Fatalf("recorded %+v, want one conn span carrying the error", spans)
			}
		})
	}
}

// TestHelloRecordCap: a hello arrives unauthenticated, so a header
// announcing 64 MiB where the peer's hello is due ends a client's or a
// server's handshake in a *RecordCapError before the body is allocated.
func TestHelloRecordCap(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  RecordType
		run  func(net.Conn, ConnConfig) (*Conn, error)
	}{
		{"client", RecHelloReply, Client},
		{"server", RecHello, Server},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ours, theirs := net.Pipe()
			defer ours.Close()
			defer theirs.Close()
			go func() {
				if tc.typ == RecHelloReply {
					if _, err := ReadHello(theirs, RecHello); err != nil {
						return
					}
				}
				_, _ = theirs.Write(AppendHeader(nil, tc.typ, 64<<20))
			}()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := tc.run(ours, ConnConfig{Core: core.DefaultConfig()})
			runtime.ReadMemStats(&after)
			var capErr *RecordCapError
			if !errors.As(err, &capErr) || capErr.Cap != maxHelloLen {
				t.Fatalf("handshake = %v, want a *RecordCapError at maxHelloLen", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("%d bytes allocated reading a 64 MiB hello header, want < 1 MiB", alloc)
			}
		})
	}
}

// TestServerRefusesUnknownModeAndProtocol pins DESIGN.md §10 row 14 at the
// server: a client hello naming a tokenization mode or protocol no party
// runs ends Server's handshake in errMalformedHello before anything is
// built for it, where the sender pipeline would have panicked on it.
func TestServerRefusesUnknownModeAndProtocol(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mode     byte
		protocol dpienc.Protocol
	}{
		{"mode 7", 7, dpienc.ProtocolII},
		{"protocol 9", byte(tokenize.Delimiter), 9},
		{"protocol 0", byte(tokenize.Delimiter), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ours, theirs := net.Pipe()
			defer ours.Close()
			defer theirs.Close()
			hello := MarshalHello(Hello{PublicKey: make([]byte, 32), Protocol: tc.protocol, Mode: tc.mode})
			go func() {
				if WriteRecord(theirs, RecHello, hello) == nil {
					_, _ = io.Copy(io.Discard, theirs)
				}
			}()
			if _, err := Server(ours, ConnConfig{Core: core.DefaultConfig()}); !errors.Is(err, errMalformedHello) {
				t.Fatalf("Server = %v, want errMalformedHello", err)
			}
		})
	}
}
