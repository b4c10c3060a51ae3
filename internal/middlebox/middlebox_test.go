package middlebox

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/rules"
	"repro/internal/tokenize"
	"repro/internal/transport"
)

// harness wires client <-> middlebox <-> server over loopback TCP.
type harness struct {
	mb      *Middlebox
	mbAddr  string
	tagKey  bbcrypto.Block
	cleanup []func()
	alerts  []Alert
	mu      sync.Mutex
}

func newHarness(t *testing.T, rulesText string, secondary bool) *harness {
	t.Helper()
	return newHarnessConfigured(t, rulesText, func(cfg *Config) { cfg.Secondary = secondary })
}

// newHarnessConfigured builds the harness with an arbitrary Config tweak
// applied after the defaults (which record alerts into h.alerts).
func newHarnessConfigured(t *testing.T, rulesText string, mutate func(*Config)) *harness {
	t.Helper()
	g, err := rules.NewGenerator("TestRG")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rules.Parse("test", rulesText)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{}
	cfg := Config{
		Ruleset:     g.Sign(rs),
		RGPublicKey: g.PublicKey(),
		OnAlert: func(a Alert) {
			h.mu.Lock()
			h.alerts = append(h.alerts, a)
			h.mu.Unlock()
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	mb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.mb = mb

	serverLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h.mbAddr = mbLn.Addr().String()
	h.cleanup = append(h.cleanup, func() { serverLn.Close(); mbLn.Close() })
	t.Cleanup(func() {
		for _, f := range h.cleanup {
			f()
		}
	})

	// BlindBox HTTPS echo server: reads the request, echoes it back.
	epCfg := transport.ConnConfig{Core: core.DefaultConfig(), RG: transport.RGMaterial{TagKey: g.TagKey()}}
	go func() {
		for {
			raw, err := serverLn.Accept()
			if err != nil {
				return
			}
			go func() {
				conn, err := transport.Server(raw, epCfg)
				if err != nil {
					raw.Close()
					return
				}
				data, err := io.ReadAll(conn)
				if err != nil {
					conn.Close()
					return
				}
				conn.Write(data)
				conn.CloseWrite()
				conn.Close()
			}()
		}
	}()
	go h.mb.Serve(mbLn, serverLn.Addr().String())
	h.tagKey = g.TagKey()
	return h
}

func (h *harness) snapshot() []Alert {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Alert(nil), h.alerts...)
}

func (h *harness) dial(t *testing.T, cfg core.Config) *transport.Conn {
	t.Helper()
	conn, err := transport.Dial(h.mbAddr, transport.ConnConfig{
		Core: cfg, RG: transport.RGMaterial{TagKey: h.tagKey},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}

func TestEndToEndCleanTraffic(t *testing.T) {
	h := newHarness(t, `alert tcp any any -> any any (content:"attackkw"; sid:1;)`, false)
	conn := h.dial(t, core.DefaultConfig())
	if !conn.MBPresent() {
		t.Fatal("client did not detect the middlebox")
	}
	msg := []byte("GET /home.html HTTP/1.1\r\nHost: innocent.example\r\n\r\n")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := conn.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	echoed, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echoed, msg) {
		t.Fatalf("echo mismatch: %q", echoed)
	}
	if got := h.snapshot(); len(got) != 0 {
		t.Fatalf("alerts on clean traffic: %+v", got)
	}
	if h.mb.Stats().TokensScanned == 0 {
		t.Fatal("middlebox scanned no tokens")
	}
}

func TestEndToEndAlertOnAttack(t *testing.T) {
	h := newHarness(t, `alert tcp any any -> any any (msg:"kw"; content:"attackkw"; sid:7;)`, false)
	conn := h.dial(t, core.DefaultConfig())
	msg := []byte("POST /x HTTP/1.1\r\n\r\npayload with attackkw inside it")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := conn.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for _, a := range h.snapshot() {
			if a.Event.Kind == detect.RuleMatch && a.Event.Rule.SID == 7 {
				return true
			}
		}
		return false
	})
	// The echo direction (server->client) re-sends the keyword; both
	// directions may alert. At least c2s must be present.
	foundC2S := false
	for _, a := range h.snapshot() {
		if a.Direction == ClientToServer {
			foundC2S = true
		}
	}
	if !foundC2S {
		t.Fatal("no client-to-server alert")
	}
}

func TestEndToEndBlockAction(t *testing.T) {
	h := newHarness(t, `drop tcp any any -> any any (msg:"blocked"; content:"forbidden1"; sid:9;)`, false)
	conn := h.dial(t, core.DefaultConfig())
	// The middlebox severs a drop flow on the token record that completes
	// the match, so the data record written behind it, and the close after
	// that, may meet a socket the middlebox already closed: a failed write
	// is the sever arriving early, not a test failure. Stats().Blocked
	// below tells the sever from any other failure.
	_, _ = conn.Write([]byte("request containing forbidden1 keyword"))
	_ = conn.CloseWrite()
	// The read ends in an error or an abrupt EOF; either way no echo may
	// carry the blocked payload.
	buf, _ := io.ReadAll(conn)
	if bytes.Contains(buf, []byte("forbidden1")) {
		t.Fatal("blocked payload was delivered")
	}
	waitFor(t, func() bool { return h.mb.Stats().Blocked > 0 })
}

func TestEndToEndProtocolIIIProbableCause(t *testing.T) {
	h := newHarness(t,
		`alert tcp any any -> any any (msg:"pc"; content:"attackkw"; pcre:"/attackkw=[0-9]+/"; sid:11;)`,
		true)
	cfg := core.Config{Protocol: dpienc.ProtocolIII, Mode: tokenize.Window}
	conn := h.dial(t, cfg)
	msg := []byte("query attackkw=12345 triggers probable cause decryption here")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	conn.CloseWrite()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return h.mb.Stats().KeysRecovered > 0 })
	waitFor(t, func() bool {
		for _, a := range h.snapshot() {
			if a.Secondary {
				for _, sid := range a.SecondarySIDs {
					if sid == 11 {
						return true
					}
				}
			}
		}
		return false
	})
	// Verify the recovered key actually matches the session key.
	for _, a := range h.snapshot() {
		if a.Event.HasSSLKey && a.Event.SSLKey != conn.SessionKeys().KSSL {
			t.Fatal("middlebox recovered a wrong kSSL")
		}
	}
}

func TestEndToEndNoProbableCauseNoDecryption(t *testing.T) {
	h := newHarness(t,
		`alert tcp any any -> any any (content:"attackkw"; pcre:"/attackkw=[0-9]+/"; sid:11;)`,
		true)
	cfg := core.Config{Protocol: dpienc.ProtocolIII, Mode: tokenize.Window}
	conn := h.dial(t, cfg)
	if _, err := conn.Write([]byte("entirely benign request with ordinary words")); err != nil {
		t.Fatal(err)
	}
	conn.CloseWrite()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatal(err)
	}
	if h.mb.Stats().KeysRecovered != 0 {
		t.Fatal("key recovered without probable cause")
	}
	if len(h.snapshot()) != 0 {
		t.Fatalf("alerts without cause: %+v", h.snapshot())
	}
}

// TestSecondaryNonceSurvivesBufferOverflow: records that arrive before key
// recovery with the buffer full are lost, but each used up a sequence
// number, so the first record after recovery still opens under its nonce.
func TestSecondaryNonceSurvivesBufferOverflow(t *testing.T) {
	g, err := rules.NewGenerator("DriftRG")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rules.Parse("drift", `alert tcp any any -> any any (msg:"kw"; content:"attackkw"; sid:7;)`)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := New(Config{Ruleset: g.Sign(rs), Secondary: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mb.Close() })
	keys := bbcrypto.DeriveSessionKeys([]byte("nonce drift"))
	cfg := core.Config{Protocol: dpienc.ProtocolIII, Mode: tokenize.Delimiter}
	fl := mb.newFlow(1, ClientToServer, cfg, core.DirectTokenKeys(keys.K, rs, cfg.Mode), func() {})

	// seal builds the body of the client's next data record: a kind byte and
	// the payload under the nonce direction 0 ‖ sequence number.
	aead := bbcrypto.NewGCM(keys.KSSL)
	var seq uint64
	seal := func(payload string) []byte {
		var nonce [12]byte
		binary.BigEndian.PutUint64(nonce[4:], seq)
		seq++
		return aead.Seal(nil, nonce[:], append([]byte{0}, payload...), dataAD)
	}
	for i := 0; i < maxBufferedRecords+3; i++ {
		mb.captureData(fl, seal("."))
	}
	mb.dispatchEvent(fl, detect.Event{Kind: detect.KeywordMatch, HasSSLKey: true, SSLKey: keys.KSSL})
	const late = "sent after the key was recovered"
	mb.captureData(fl, seal(late))
	if want := strings.Repeat(".", maxBufferedRecords) + late; string(fl.plaintext) != want {
		t.Fatalf("plaintext ends %q, want the %d buffered records and then %q",
			fl.plaintext[max(0, len(fl.plaintext)-40):], maxBufferedRecords, late)
	}
}

func TestMiddleboxRejectsBadSignature(t *testing.T) {
	g1, _ := rules.NewGenerator("RG1")
	g2, _ := rules.NewGenerator("RG2")
	rs, err := rules.Parse("t", `alert tcp any any -> any any (content:"x1234567"; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Ruleset: g1.Sign(rs), RGPublicKey: g2.PublicKey()}); err == nil {
		t.Fatal("wrong RG key accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil ruleset accepted")
	}
}

func TestMultiKeywordRuleThroughMiddlebox(t *testing.T) {
	h := newHarness(t, strings.Join([]string{
		`alert tcp any any -> any any (content:"Server: nginx/0."; content:"Content-Type: text/html"; sid:21;)`,
	}, "\n"), false)
	conn := h.dial(t, core.Config{Protocol: dpienc.ProtocolII, Mode: tokenize.Delimiter})
	msg := []byte("HTTP/1.1 200 OK\r\nServer: nginx/0.6.2\r\nContent-Type: text/html\r\n\r\nbody")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	conn.CloseWrite()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for _, a := range h.snapshot() {
			if a.Event.Kind == detect.RuleMatch && a.Event.Rule.SID == 21 {
				return true
			}
		}
		return false
	})
}

func TestMultiplexedStreamsThroughMiddlebox(t *testing.T) {
	// The paper's persistent-connection setting: one handshake + one rule
	// preparation, many logical requests — detection still works on every
	// stream.
	h := newHarness(t, `alert tcp any any -> any any (msg:"kw"; content:"streamattack7"; sid:31;)`, false)

	// Replace the default echo server with a mux-aware one.
	serverLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer serverLn.Close()
	mbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mbLn.Close()
	epCfg := transport.ConnConfig{Core: core.DefaultConfig(), RG: transport.RGMaterial{TagKey: h.tagKey}}
	go func() {
		raw, err := serverLn.Accept()
		if err != nil {
			return
		}
		conn, err := transport.Server(raw, epCfg)
		if err != nil {
			raw.Close()
			return
		}
		mux := transport.NewMux(conn, false)
		for {
			st, err := mux.Accept()
			if err != nil {
				return
			}
			go func() {
				data, err := io.ReadAll(st)
				if err != nil {
					return
				}
				st.Write(data)
				st.Close()
			}()
		}
	}()
	go h.mb.Serve(mbLn, serverLn.Addr().String())

	conn, err := transport.Dial(mbLn.Addr().String(), epCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	mux := transport.NewMux(conn, true)

	// Several innocent streams, then one attack stream.
	for i := 0; i < 5; i++ {
		st, err := mux.Open()
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte(strings.Repeat("innocent request body ", 4))
		st.Write(msg)
		st.Close()
		echo, err := io.ReadAll(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(echo, msg) {
			t.Fatalf("stream %d echo mismatch", i)
		}
	}
	if got := len(h.snapshot()); got != 0 {
		t.Fatalf("alerts on innocent streams: %d", got)
	}

	st, err := mux.Open()
	if err != nil {
		t.Fatal(err)
	}
	st.Write([]byte("payload carrying streamattack7 keyword"))
	st.Close()
	if _, err := io.ReadAll(st); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for _, a := range h.snapshot() {
			if a.Event.Kind == detect.RuleMatch && a.Event.Rule.SID == 31 {
				return true
			}
		}
		return false
	})
	// All streams shared ONE middlebox connection (one rule preparation).
	if h.mb.Stats().Connections != 1 {
		t.Fatalf("connections = %d, want 1", h.mb.Stats().Connections)
	}
}

func TestMismatchedRGConfigRejectedAtPreparation(t *testing.T) {
	// A client configured with a different RG than the server: the two
	// endpoints embed different kRG values, so their deterministically
	// garbled circuits differ and the middlebox's §3.3 equality check
	// rejects the connection during rule preparation — the client's
	// handshake fails rather than proceeding uninspectable.
	h := newHarness(t, `alert tcp any any -> any any (content:"attackkw"; sid:1;)`, false)
	otherRG, err := rules.NewGenerator("ImposterRG")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := transport.Dial(h.mbAddr, transport.ConnConfig{
		Core: core.DefaultConfig(),
		RG:   transport.RGMaterial{TagKey: otherRG.TagKey()}, // wrong kRG
	})
	if err == nil {
		conn.Close()
		t.Fatal("handshake with mismatched RG configuration succeeded")
	}
	if len(h.snapshot()) != 0 {
		t.Fatal("alerts fired on a rejected connection")
	}
	// The middlebox keeps serving honest connections afterwards.
	good := h.dial(t, core.DefaultConfig())
	good.Write([]byte("attackkw present"))
	good.CloseWrite()
	if _, err := io.ReadAll(good); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for _, a := range h.snapshot() {
			if a.Event.Kind == detect.RuleMatch {
				return true
			}
		}
		return false
	})
}

func TestMismatchedKrandKillsConnection(t *testing.T) {
	// A man-in-the-middle (or buggy endpoint) that breaks the shared
	// handshake yields different garbling randomness; the middlebox's §3.3
	// equality check must reject the connection during preparation. We
	// simulate by connecting a client whose raw bytes are tampered
	// post-hello, which breaks GCM anyway — so instead check the documented
	// internal: two endpoints with different session keys cannot complete
	// preparation (covered in ruleprep tests); here we check that a
	// mid-preparation disconnect does not wedge the middlebox.
	h := newHarness(t, `alert tcp any any -> any any (content:"attackkw"; sid:1;)`, false)
	raw, err := net.Dial("tcp", h.mbAddr)
	if err != nil {
		t.Fatal(err)
	}
	// Send a valid client hello, then vanish mid-preparation.
	hello := transport.Hello{
		PublicKey: make([]byte, 32),
		Protocol:  dpienc.ProtocolII,
		Mode:      byte(tokenize.Delimiter),
	}
	if err := transport.WriteRecord(raw, transport.RecHello, transport.MarshalHello(hello)); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	// The middlebox must survive and keep serving new, honest connections.
	conn := h.dial(t, core.DefaultConfig())
	conn.Write([]byte("attackkw present"))
	conn.CloseWrite()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for _, a := range h.snapshot() {
			if a.Event.Kind == detect.RuleMatch {
				return true
			}
		}
		return false
	})
}

func TestStatsProgress(t *testing.T) {
	h := newHarness(t, `alert tcp any any -> any any (content:"attackkw"; sid:1;)`, false)
	conn := h.dial(t, core.DefaultConfig())
	conn.Write([]byte("plain words travelling through"))
	conn.CloseWrite()
	io.ReadAll(conn)
	st := h.mb.Stats()
	if st.Connections != 1 || st.TokensScanned == 0 || st.BytesForwarded == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSoakLargeFlowWithResetsAndProtocolIII(t *testing.T) {
	// A multi-megabyte Protocol III flow through the full path: exercises
	// counter-table resets (> 1 MiB default interval), probable-cause
	// buffering bounds, bidirectional echo and receiver validation at
	// scale.
	if testing.Short() {
		t.Skip("soak test")
	}
	h := newHarness(t,
		`alert tcp any any -> any any (msg:"needle"; content:"needle-a3f9c2d1"; sid:41;)`,
		true)
	cfg := core.Config{Protocol: dpienc.ProtocolIII, Mode: tokenize.Delimiter}
	conn := h.dial(t, cfg)

	chunk := []byte(strings.Repeat("benign words flowing through the tunnel at volume ", 40)) // ~2 KB
	var sent int
	writer := make(chan error, 1)
	go func() {
		for i := 0; i < 800; i++ { // ~1.6 MB, crosses the reset interval
			payload := chunk
			if i == 700 {
				payload = append([]byte("the needle-a3f9c2d1 appears late "), chunk...)
			}
			if _, err := conn.Write(payload); err != nil {
				writer <- err
				return
			}
			sent += len(payload)
		}
		writer <- conn.CloseWrite()
	}()
	received, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	if len(received) < 1<<20 {
		t.Fatalf("echo truncated: %d bytes", len(received))
	}
	waitFor(t, func() bool {
		for _, a := range h.snapshot() {
			if a.Event.Kind == detect.RuleMatch && a.Event.Rule.SID == 41 {
				return true
			}
		}
		return false
	})
	if h.mb.Stats().KeysRecovered == 0 {
		t.Fatal("probable cause did not recover the key on the late match")
	}
}

func TestStreamsWithProtocolIIIProbableCause(t *testing.T) {
	// Stream multiplexing composes with Protocol III: a keyword inside one
	// stream's frames still triggers key recovery and secondary inspection
	// (tokens are computed over the tunnel's byte stream, which contains
	// the frame bodies).
	h := newHarness(t,
		`alert tcp any any -> any any (msg:"pc"; content:"tunnelkw9"; pcre:"/tunnelkw9=[0-9]+/"; sid:51;)`,
		true)
	serverLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer serverLn.Close()
	mbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mbLn.Close()
	cfg := core.Config{Protocol: dpienc.ProtocolIII, Mode: tokenize.Window}
	epCfg := transport.ConnConfig{Core: cfg, RG: transport.RGMaterial{TagKey: h.tagKey}}
	go func() {
		raw, err := serverLn.Accept()
		if err != nil {
			return
		}
		conn, err := transport.Server(raw, epCfg)
		if err != nil {
			raw.Close()
			return
		}
		mux := transport.NewMux(conn, false)
		for {
			st, err := mux.Accept()
			if err != nil {
				conn.Close()
				return
			}
			go func() {
				io.Copy(io.Discard, st)
				st.Write([]byte("ok"))
				st.Close()
			}()
		}
	}()
	go h.mb.Serve(mbLn, serverLn.Addr().String())

	conn, err := transport.Dial(mbLn.Addr().String(), epCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	mux := transport.NewMux(conn, true)
	for i := 0; i < 3; i++ {
		st, err := mux.Open()
		if err != nil {
			t.Fatal(err)
		}
		body := "benign stream body with ordinary words"
		if i == 2 {
			body = "stream carrying tunnelkw9=4242 the probable cause"
		}
		st.Write([]byte(body))
		st.Close()
		if _, err := io.ReadAll(st); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return h.mb.Stats().KeysRecovered > 0 })
	// The recovered key must be the tunnel's kSSL.
	for _, a := range h.snapshot() {
		if a.Event.HasSSLKey && a.Event.SSLKey != conn.SessionKeys().KSSL {
			t.Fatal("wrong kSSL recovered from a multiplexed tunnel")
		}
	}
}
