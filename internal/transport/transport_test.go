package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"slices"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/dpienc"
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
	enc := MarshalHello(h)
	got, err := UnmarshalHello(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.PublicKey, h.PublicKey) || got.Protocol != h.Protocol ||
		got.Mode != h.Mode || got.Salt0 != h.Salt0 || got.MBPresent {
		t.Fatalf("hello round trip: %+v", got)
	}
	if err := SetMBPresent(enc); err != nil {
		t.Fatal(err)
	}
	got, err = UnmarshalHello(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.MBPresent {
		t.Fatal("MBPresent not set")
	}
}

func TestHelloTraceExtension(t *testing.T) {
	h := Hello{
		PublicKey: bytes.Repeat([]byte{9}, 32),
		Protocol:  dpienc.ProtocolI,
		Salt0:     42,
		HasTrace:  true,
		TraceID:   [16]byte{0xAA, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0xBB},
		TraceSpan: 0xDEADBEEF,
	}
	enc := MarshalHello(h)
	got, err := UnmarshalHello(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasTrace || got.TraceID != h.TraceID || got.TraceSpan != h.TraceSpan {
		t.Fatalf("trace extension round trip: %+v", got)
	}
	// The middlebox flips MBPresent in place; the extension must survive.
	if err := SetMBPresent(enc); err != nil {
		t.Fatal(err)
	}
	got, err = UnmarshalHello(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.MBPresent || !got.HasTrace || got.TraceID != h.TraceID || got.TraceSpan != h.TraceSpan {
		t.Fatalf("extension lost across SetMBPresent: %+v", got)
	}
}

func TestAppendHelloTrace(t *testing.T) {
	plain := MarshalHello(Hello{PublicKey: bytes.Repeat([]byte{7}, 32), Salt0: 5})
	id := [16]byte{1, 2, 3}
	withTrace, err := AppendHelloTrace(plain, id, 77)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalHello(withTrace)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasTrace || got.TraceID != id || got.TraceSpan != 77 || got.Salt0 != 5 {
		t.Fatalf("injected hello: %+v", got)
	}
	// Appending to a hello that already carries context is a no-op.
	again, err := AppendHelloTrace(withTrace, [16]byte{9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, withTrace) {
		t.Fatal("AppendHelloTrace rewrote an existing extension")
	}
	// A hello with unknown trailing bytes is left alone.
	weird := append(append([]byte(nil), plain...), 0x7F, 0x7F)
	out, err := AppendHelloTrace(weird, id, 77)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, weird) {
		t.Fatal("AppendHelloTrace touched an unknown extension")
	}
}

func TestHelloSampledExtension(t *testing.T) {
	h := Hello{
		PublicKey: bytes.Repeat([]byte{9}, 32),
		Salt0:     42,
		HasTrace:  true,
		TraceID:   [16]byte{0xAA, 15: 0xBB},
		TraceSpan: 7,
		HasSample: true,
		Sampled:   true,
	}
	enc := MarshalHello(h)
	got, err := UnmarshalHello(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasSample || !got.Sampled {
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
	got, err = UnmarshalHello(MarshalHello(Hello{PublicKey: h.PublicKey, HasSample: true, Sampled: true}))
	if err != nil {
		t.Fatal(err)
	}
	if got.HasSample {
		t.Fatalf("sampling extension without trace context: %+v", got)
	}
	// MBPresent flips in place without disturbing either extension.
	if err := SetMBPresent(enc); err != nil {
		t.Fatal(err)
	}
	got, err = UnmarshalHello(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.MBPresent || !got.HasTrace || !got.HasSample || !got.Sampled {
		t.Fatalf("extensions lost across SetMBPresent: %+v", got)
	}
}

func TestAppendHelloSampled(t *testing.T) {
	plain := MarshalHello(Hello{PublicKey: bytes.Repeat([]byte{7}, 32), Salt0: 5})
	// Without a trace extension there is nowhere to hang the decision.
	out, err := AppendHelloSampled(plain, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, plain) {
		t.Fatal("AppendHelloSampled modified an untraced hello")
	}
	traced, err := AppendHelloTrace(plain, [16]byte{1, 2, 3}, 77)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := AppendHelloSampled(traced, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalHello(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasTrace || got.TraceSpan != 77 || !got.HasSample || !got.Sampled {
		t.Fatalf("appended decision: %+v", got)
	}
	// A present decision is never rewritten — first writer wins, so every
	// party downstream of the decider sees the same verdict.
	again, err := AppendHelloSampled(sampled, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, sampled) {
		t.Fatal("AppendHelloSampled rewrote an existing decision")
	}
	// Unknown trailing bytes are left alone, like AppendHelloTrace.
	weird := append(append([]byte(nil), traced...), 0x7F, 0x7F)
	out, err = AppendHelloSampled(weird, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, weird) {
		t.Fatal("AppendHelloSampled touched an unknown extension")
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

func TestByteSlicesRoundTrip(t *testing.T) {
	in := [][]byte{[]byte("a"), {}, []byte("longer slice here")}
	framed := AppendByteSlices([]byte{SubOTU}, in)
	if framed[0] != SubOTU {
		t.Fatal("append overwrote the prefix")
	}
	enc := framed[1:]
	got, err := UnmarshalByteSlices(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !bytes.Equal(got[0], in[0]) || len(got[1]) != 0 || !bytes.Equal(got[2], in[2]) {
		t.Fatalf("round trip: %q", got)
	}
	if _, err := UnmarshalByteSlices(enc[:5]); err == nil {
		t.Fatal("truncated slice list accepted")
	}
	if _, err := UnmarshalByteSlices(append(enc, 1)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestByteSlicesCountCannotSizeTheAllocation: a four-byte body claiming
// MaxRecordLen entries is refused before anything is sized by the count.
// Entries need four bytes each, so it is the body that bounds the list.
func TestByteSlicesCountCannotSizeTheAllocation(t *testing.T) {
	body := binary.BigEndian.AppendUint32(nil, MaxRecordLen)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalByteSlices(body); err == nil {
				b.Fatal("a count with no entries behind it was accepted")
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 1<<10 {
		t.Fatalf("a %d-byte slice list allocates %d bytes, want under 1 KiB", len(body), got)
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
	pairs := [][2]bbcrypto.Block{{in[0], in[1]}, {in[2], in[0]}}
	flat, err := UnmarshalBlocks(AppendBlockPairs(nil, pairs))
	if err != nil {
		t.Fatal(err)
	}
	if want := []bbcrypto.Block{in[0], in[1], in[2], in[0]}; !slices.Equal(flat, want) {
		t.Fatalf("pairs decode as %v, want %v", flat, want)
	}
}

func TestValidationDisabledAcceptsForgedTokens(t *testing.T) {
	// A receiver that opts out of §3.4 validation (lazy receiver model in
	// tests) must deliver data even when the token channel is wrong.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := ConnConfig{Core: core.DefaultConfig()}
	got := make(chan []byte, 1)
	errCh := make(chan error, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			errCh <- err
			return
		}
		s, err := Server(raw, cfg)
		if err != nil {
			errCh <- err
			return
		}
		s.SetValidationDisabled(true)
		data, err := io.ReadAll(s)
		if err != nil {
			errCh <- err
			return
		}
		got <- data
	}()
	client, err := Dial(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Forge the token channel by writing a bogus token record directly.
	if err := WriteRecord(client.raw, RecTokens, MarshalTokens([]dpienc.EncryptedToken{{Offset: 1}}, false)); err != nil {
		t.Fatal(err)
	}
	client.Write([]byte("payload anyway"))
	client.CloseWrite()
	select {
	case data := <-got:
		if !bytes.Equal(data, []byte("payload anyway")) {
			t.Fatalf("got %q", data)
		}
	case err := <-errCh:
		t.Fatalf("lazy receiver rejected traffic: %v", err)
	}
	client.Close()
}
