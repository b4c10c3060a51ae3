// Endpoint connection logic of BlindBox HTTPS: the handshake (§2.3), the
// AES-GCM record layer, the token side-channel, receiver-side validation
// (§3.4); the endpoint half of the rule-preparation exchange (§3.3) runs
// in ruleprep over a PrepPort.

package transport

import (
	"bufio"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/dpienc"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/ruleprep"
	"repro/internal/tokenize"
)

// RGMaterial is the rule-generator configuration endpoints install before
// using BlindBox HTTPS (the paper's "BlindBox HTTPS configuration which
// includes RG's public key", §2.3). TagKey authorizes keyword fragments
// inside the garbled circuit.
type RGMaterial struct {
	TagKey bbcrypto.Block
}

// ConnConfig configures one endpoint connection.
type ConnConfig struct {
	// Core selects protocol, tokenization mode and initial salt.
	Core core.Config
	// RG is the installed rule-generator material.
	RG RGMaterial
	// Timeouts bounds the connection's blocking network steps; the zero
	// value selects DefaultTimeouts (see Timeouts for the per-step
	// semantics and NoTimeout for disabling a step's deadline).
	Timeouts Timeouts
	// DialRetry bounds Dial's connect-plus-handshake retry loop; the
	// zero value retries up to retry.DefaultAttempts times with jittered
	// exponential backoff. Set Attempts to 1 to fail on the first error.
	// Only Dial consults it — Client and Server run on an established
	// transport and never retry.
	DialRetry retry.Policy
	// Trace, when Recorder is nil, receives every span of this endpoint
	// (conn, handshake, prep.garble, tokenize, encrypt) as it is recorded
	// (obs.StreamFlow). Endpoints never see middlebox connection IDs, so
	// spans carry a transport-local flow sequence number instead.
	Trace obs.Sink
	// Recorder, when set, records this endpoint's flows in its flight
	// recorder and Trace is not read: head-sampled flows stream, flows that
	// end in an interesting state flush their ring, the rest are dropped.
	// A tracing client puts its head-sampling decision on the hello so
	// middlebox and server keep the same flows.
	Recorder *obs.Recorder
}

// connSeq numbers instrumented endpoint connections process-wide, giving
// endpoint spans a stable flow ID.
var connSeq atomic.Uint64

// Conn is a BlindBox HTTPS connection endpoint. It implements
// io.ReadWriteCloser for text payloads; binary (untokenized) payloads go
// through WriteBinary.
type Conn struct {
	raw net.Conn
	// rd is the connection's one reader, from the first hello on: a reader
	// placed later would lose what the handshake read ahead.
	rd       *bufio.Reader
	isClient bool
	cfg      ConnConfig
	keys     bbcrypto.SessionKeys
	// mbPresent records whether a middlebox interposed on the handshake.
	mbPresent bool

	// tmo is cfg.Timeouts resolved once at handshake time.
	tmo Timeouts

	// out seals this endpoint's data records (under writeMu) and in opens
	// the peer's (reader only).
	out, in   *DataCipher
	writeMu   sync.Mutex
	pipe      *core.SenderPipeline
	validator *core.Validator
	// wbuf (under writeMu) is one chunk's salt, token and data records,
	// framed for a single socket write and reused by every chunk; sendToks
	// (under writeMu) is that chunk's encrypted tokens, reused likewise.
	wbuf     []byte
	sendToks []dpienc.EncryptedToken
	// rbuf and recvToks (reader only) are the last data-phase record's body
	// and its unmarshalled tokens, reused by every record. readBuf is the
	// unread rest of the last data record's plaintext; it aliases rbuf, so
	// Read serves all of it before reading the next record.
	rbuf     []byte
	recvToks []dpienc.EncryptedToken
	readBuf  []byte
	readErr  error
	// salt is the peer's pending salt announcement (reader only), which
	// the next data record's counter reset must match; see checkSalt.
	salt        uint64
	saltPending bool
	// termErr republishes readErr for Close, which may run on a
	// different goroutine than the reader (e.g. under a stream Mux).
	termErr    atomic.Pointer[error]
	wroteClose bool

	// flowID labels this endpoint's spans; it and fr stay zero when
	// neither ConnConfig.Trace nor Recorder is set.
	flowID uint64
	// fr records every span of this flow (see beginFlow); nil when
	// untraced, and all its methods are nil-safe.
	fr *obs.FlowRecorder
	// ctx is the connection span's trace context: the root of a fresh
	// trace on a tracing client, or a child of the peer-negotiated root
	// elsewhere. hsCtx is the handshake span's context (parent of the
	// §3.3 prep.garble sub-spans). connStart/closeOnce emit the
	// connection span exactly once at Close.
	ctx       obs.SpanCtx
	hsCtx     obs.SpanCtx
	connStart time.Time
	closeOnce sync.Once
}

// party names this endpoint for Span.Party.
func (c *Conn) party() string {
	if c.isClient {
		return obs.PartyClient
	}
	return obs.PartyServer
}

// traced reports whether this endpoint produces spans at all (directly to
// Trace, or through a flight recorder).
func (c *Conn) traced() bool {
	return c.cfg.Trace != nil || c.cfg.Recorder != nil
}

// beginFlow starts this flow's recorder under c.ctx: the Recorder's flow,
// with head-sampling decision head, when a Recorder is configured, else a
// stream to Trace. It runs as soon as c.ctx is set — before the hello on a
// client — so a failed handshake is recorded too.
func (c *Conn) beginFlow(head bool) {
	if r := c.cfg.Recorder; r != nil {
		c.fr = r.BeginFlowSampled(c.flowID, c.party(), c.ctx, head)
	} else {
		c.fr = obs.StreamFlow(c.cfg.Trace, c.flowID, c.party(), c.ctx)
	}
}

// Dial opens a BlindBox HTTPS connection to addr (typically the middlebox
// in front of the server). Connect and handshake are retried as one unit
// under cfg.DialRetry — a handshake that died mid-way cannot be resumed,
// only redone on a fresh transport.
func Dial(addr string, cfg ConnConfig) (*Conn, error) {
	tmo := cfg.Timeouts.withDefaults()
	var c *Conn
	err := cfg.DialRetry.Do(nil, func(int) error {
		raw, err := net.DialTimeout("tcp", addr, enabled(tmo.Handshake))
		if err != nil {
			return err
		}
		cc, err := Client(raw, cfg)
		if err != nil {
			_ = raw.Close()
			return err
		}
		c = cc
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Client runs the client side of the handshake over an established
// transport.
func Client(raw net.Conn, cfg ConnConfig) (*Conn, error) {
	c := &Conn{raw: raw, rd: bufio.NewReaderSize(raw, BufSize), isClient: true, cfg: cfg}
	if err := c.handshake(); err != nil {
		return nil, err
	}
	return c, nil
}

// Server runs the server side of the handshake over an accepted transport.
// The server adopts the client's protocol parameters.
func Server(raw net.Conn, cfg ConnConfig) (*Conn, error) {
	c := &Conn{raw: raw, rd: bufio.NewReaderSize(raw, BufSize), isClient: false, cfg: cfg}
	if err := c.handshake(); err != nil {
		return nil, err
	}
	return c, nil
}

// handshake runs the connection setup under the handshake deadline: the
// hello exchange plus (with a middlebox on path) the whole rule-preparation
// protocol. A deadline expiry surfaces as a *StepError for step
// "handshake".
func (c *Conn) handshake() error {
	c.tmo = c.cfg.Timeouts.withDefaults()
	if dl := deadlineFor(c.tmo.Handshake); !dl.IsZero() {
		if err := c.raw.SetDeadline(dl); err == nil {
			defer func() { _ = c.raw.SetDeadline(time.Time{}) }()
		}
	}
	err := stepErr("handshake", c.runHandshake())
	if err != nil {
		// A failed handshake is this flow's terminal state: emit the
		// connection span with the error and let the flight recorder
		// flush (handshake failures are always interesting).
		c.finishTrace(err.Error())
	}
	return err
}

// runHandshake is the deadline-free handshake body.
func (c *Conn) runHandshake() error {
	hsStart := time.Now()
	c.connStart = hsStart
	if c.traced() {
		c.flowID = connSeq.Add(1)
	}
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	my := Hello{
		PublicKey: priv.PublicKey().Bytes(),
		Protocol:  c.cfg.Core.Protocol,
		Mode:      byte(c.cfg.Core.Mode),
		Salt0:     c.cfg.Core.Salt0,
	}
	var peer Hello
	if c.isClient {
		// A tracing client roots the flow's distributed trace on its
		// hello, with its recorder's head-sampling decision, so the
		// middlebox and server join it and keep the same flows.
		if c.traced() {
			var head bool
			c.ctx, head, _ = my.JoinTrace(c.cfg.Recorder)
			c.beginFlow(head)
		}
		if err := WriteRecord(c.raw, RecHello, MarshalHello(my)); err != nil {
			return err
		}
		if peer, err = ReadHello(c.rd, RecHelloReply); err != nil {
			return err
		}
	} else {
		if peer, err = ReadHello(c.rd, RecHello); err != nil {
			return err
		}
		// Adopt the client's parameters.
		c.cfg.Core.Protocol = peer.Protocol
		c.cfg.Core.Mode = tokenize.Mode(peer.Mode)
		c.cfg.Core.Salt0 = peer.Salt0
		my.Protocol, my.Mode, my.Salt0 = peer.Protocol, peer.Mode, peer.Salt0
		// A tracing server joins the trace and decision the hello carries
		// (the client's, or a tracing middlebox's); without them it roots
		// its own single-party trace and decides itself (deterministic on
		// the trace ID, so equal rates still agree).
		if c.traced() {
			ctx, head, root := peer.JoinTrace(c.cfg.Recorder)
			if !root {
				ctx = ctx.Child()
			}
			c.ctx = ctx
			c.beginFlow(head)
		}
		if err := WriteRecord(c.raw, RecHelloReply, MarshalHello(my)); err != nil {
			return err
		}
	}
	c.mbPresent = peer.MBPresent
	c.hsCtx = c.ctx.Child()

	peerKey, err := ecdh.X25519().NewPublicKey(peer.PublicKey)
	if err != nil {
		return fmt.Errorf("transport: bad peer key: %w", err)
	}
	k0, err := priv.ECDH(peerKey)
	if err != nil {
		return err
	}
	c.keys = bbcrypto.DeriveSessionKeys(k0)
	c.out = NewDataCipher(c.keys.KSSL, !c.isClient, 0)
	c.in = NewDataCipher(c.keys.KSSL, c.isClient, 0)
	c.pipe = core.NewSenderPipeline(c.keys, c.cfg.Core)
	c.validator = core.NewValidator(c.keys, c.cfg.Core)

	if c.mbPresent {
		// §3.3; the prep.garble spans parent under the handshake span.
		ep := ruleprep.NewEndpoint(c.keys.K, c.cfg.RG.TagKey, c.keys.KRand)
		ep.SetTrace(c.fr, c.hsCtx)
		if err := ep.Serve(PrepPort{R: c.rd, W: c.raw}, c.isClient); err != nil {
			return fmt.Errorf("transport: rule preparation: %w", err)
		}
	}
	c.instrument(hsStart)
	return nil
}

// instrument wires the endpoint's tracing after a successful handshake:
// the handshake span (rule preparation included) and the sender
// pipeline's tokenize/encrypt spans. Untraced, it leaves both off.
func (c *Conn) instrument(hsStart time.Time) {
	c.fr.Span(c.hsCtx, hsStart, obs.Span{Name: obs.SpanHandshake})
	dir := "s2c"
	if c.isClient {
		dir = "c2s"
	}
	c.pipe.Instrument(c.fr, dir)
}

// send writes b, the framed records of one chunk, in one socket write under
// the write deadline. A deadline expiry surfaces as a *StepError for step
// "write".
func (c *Conn) send(b []byte) error {
	if dl := deadlineFor(c.tmo.Write); !dl.IsZero() {
		_ = c.raw.SetWriteDeadline(dl)
	}
	_, err := c.raw.Write(b)
	return stepErr("write", err)
}

// SessionKeys exposes the derived keys (tests and the probable-cause
// decryption check need them).
func (c *Conn) SessionKeys() bbcrypto.SessionKeys { return c.keys }

// MBPresent reports whether a middlebox interposed on the handshake.
func (c *Conn) MBPresent() bool { return c.mbPresent }

// record plaintext kinds.
const (
	kindText   = 0
	kindBinary = 1
)

// Write sends text (inspectable) payload. It tokenizes, encrypts tokens,
// and sends the SSL data record, splitting large writes.
func (c *Conn) Write(p []byte) (int, error) {
	return c.write(p, false)
}

// WriteBinary sends payload the IDS does not inspect (images, video): the
// data is SSL-protected but produces no tokens (§3 bandwidth optimization).
func (c *Conn) WriteBinary(p []byte) (int, error) {
	return c.write(p, true)
}

func (c *Conn) write(p []byte, binary_ bool) (int, error) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.wroteClose {
		return 0, errors.New("transport: write after close")
	}
	total := 0
	kind := byte(kindText)
	if binary_ {
		kind = kindBinary
	}
	for len(p) > 0 {
		chunk := p[:min(len(p), maxDataRecord)]
		p = p[len(chunk):]

		var reset *core.SaltReset
		if binary_ {
			c.sendToks, reset = c.pipe.ProcessBinaryInto(c.sendToks[:0], len(chunk))
		} else {
			c.sendToks, reset = c.pipe.ProcessTextInto(c.sendToks[:0], chunk)
		}
		b := c.wbuf[:0]
		if reset != nil {
			b = binary.BigEndian.AppendUint64(AppendHeader(b, RecSalt, 8), reset.Salt0)
		}
		b = c.appendTokens(b, c.sendToks)
		c.wbuf = c.appendData(b, kind, chunk)
		if err := c.send(c.wbuf); err != nil {
			return total, err
		}
		total += len(chunk)
	}
	return total, nil
}

// appendTokens appends the token record of toks to b, if there are any.
func (c *Conn) appendTokens(b []byte, toks []dpienc.EncryptedToken) []byte {
	if len(toks) == 0 {
		return b
	}
	p3 := c.cfg.Core.Protocol == dpienc.ProtocolIII
	return appendTokens(AppendHeader(b, RecTokens, 4+len(toks)*tokenSize(p3)), toks, p3)
}

// appendData appends the data record of one chunk to b: its header, then
// kind ‖ chunk sealed in place behind it. b is grown first so that Seal
// finds room for the tag and writes over the plaintext it reads.
func (c *Conn) appendData(b []byte, kind byte, chunk []byte) []byte {
	n := len(chunk) + DataRecordOverhead
	b = slices.Grow(AppendHeader(b, RecData, n), n)
	at := len(b)
	b = append(append(b, kind), chunk...)
	return c.out.seal(b[:at], b[at:])
}

// CloseWrite flushes trailing tokens and signals end-of-stream; reads may
// continue.
func (c *Conn) CloseWrite() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.wroteClose {
		return nil
	}
	c.wroteClose = true
	c.sendToks = c.pipe.FlushInto(c.sendToks[:0])
	c.wbuf = AppendHeader(c.appendTokens(c.wbuf[:0], c.sendToks), RecClose, 0)
	return c.send(c.wbuf)
}

// Close closes the connection, sending the end-of-stream first, and emits
// the connection-level span (the root of the flow's distributed trace on
// a tracing client) covering handshake through close.
func (c *Conn) Close() error {
	_ = c.CloseWrite()
	err := c.raw.Close()
	errMsg := ""
	if ep := c.termErr.Load(); ep != nil && *ep != io.EOF {
		errMsg = (*ep).Error()
	}
	c.finishTrace(errMsg)
	return err
}

// finishTrace emits the connection-level span exactly once and ends the
// flow's flight recorder, which flushes or drops the ring depending on
// head sampling and terminal state. errMsg is the flow's terminal error
// ("" for a clean close); a non-empty error marks the flow interesting.
func (c *Conn) finishTrace(errMsg string) {
	c.closeOnce.Do(func() {
		c.fr.Span(c.ctx, c.connStart, obs.Span{Name: obs.SpanConn, Err: errMsg})
		c.fr.End(errMsg)
	})
}

// Read returns decrypted, validated payload bytes (both text and binary
// kinds). It returns io.EOF after the peer's RecClose, and a
// *RecordCapError for a record over its data-phase cap.
func (c *Conn) Read(p []byte) (int, error) {
	for len(c.readBuf) == 0 {
		if c.readErr != nil {
			return 0, c.readErr
		}
		if err := c.readRecord(); err != nil {
			c.readErr = err
			e := err // a copy, so that only a failed read moves one to the heap
			c.termErr.Store(&e)
			return 0, err
		}
	}
	n := copy(p, c.readBuf)
	c.readBuf = c.readBuf[n:]
	return n, nil
}

func (c *Conn) readRecord() error {
	if dl := deadlineFor(c.tmo.Read); !dl.IsZero() {
		_ = c.raw.SetReadDeadline(dl)
	}
	typ, body, err := ReadRecordInto(c.rd, c.rbuf)
	if err != nil {
		return stepErr("read", err)
	}
	c.rbuf = body
	switch typ {
	case RecSalt:
		if len(body) != 8 {
			return &SaltError{Reason: fmt.Sprintf("a %d-byte announcement", len(body))}
		}
		if c.saltPending {
			return &SaltError{Reason: "a second announcement before the reset"}
		}
		c.salt, c.saltPending = binary.BigEndian.Uint64(body), true
		return nil
	case RecTokens:
		toks, err := UnmarshalTokensInto(c.recvToks, body, c.cfg.Core.Protocol == dpienc.ProtocolIII)
		if err != nil {
			return err
		}
		c.recvToks = toks
		c.validator.ReceiveTokens(toks) // copies
		return nil
	case RecData:
		pt, err := c.in.Open(body[:0], body)
		if err != nil {
			return fmt.Errorf("transport: record authentication failed: %w", err)
		}
		if len(pt) < 1 {
			return errors.New("transport: empty data record")
		}
		kind, payload := pt[0], pt[1:]
		salt0 := c.validator.Salt0()
		switch kind {
		case kindText:
			if err := c.validator.ValidateText(payload); err != nil {
				return err
			}
		case kindBinary:
			if err := c.validator.ValidateBinary(len(payload)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("transport: unknown data kind %d", kind)
		}
		if err := c.checkSalt(salt0); err != nil {
			return err
		}
		c.readBuf = payload
		return nil
	case RecClose:
		if c.saltPending {
			return &SaltError{Reason: "an announcement pending at close"}
		}
		if err := c.validator.Finish(); err != nil {
			return err
		}
		return io.EOF
	default:
		return fmt.Errorf("transport: unexpected record type %d", typ)
	}
}

// checkSalt holds the data record just validated to the peer's salt
// announcements (DESIGN.md §10 row 10). The middlebox re-keys its engine to
// every announcement, so an announcement the validator's own reset does
// not match, or a reset the middlebox was not told of, would have it scan
// under the wrong salts: the record's reset, from salt0 to the
// validator's salt0 now, must match the pending announcement, and a
// record without one must find none pending.
func (c *Conn) checkSalt(salt0 uint64) error {
	now := c.validator.Salt0()
	announced, pending := c.salt, c.saltPending
	c.saltPending = false
	switch {
	case now == salt0 && !pending, now != salt0 && pending && announced == now:
		return nil
	case !pending:
		return &SaltError{Reason: fmt.Sprintf("a reset to salt0 %d without an announcement", now)}
	case now == salt0:
		return &SaltError{Reason: fmt.Sprintf("announced salt0 %d without a reset", announced)}
	}
	return &SaltError{Reason: fmt.Sprintf("announced salt0 %d for a reset to %d", announced, now)}
}

// SaltError ends Read when the peer's salt announcements (RecSalt)
// disagree with its counter resets: evidence that the sender, or a party
// on the path, tried to move the middlebox's detection off its tokens
// (§3.4). It wraps core.ErrTokenMismatch.
type SaltError struct {
	Reason string
}

// Error implements error.
func (e *SaltError) Error() string {
	return fmt.Sprintf("%v: salt announcement: %s", core.ErrTokenMismatch, e.Reason)
}

// Unwrap returns core.ErrTokenMismatch.
func (e *SaltError) Unwrap() error { return core.ErrTokenMismatch }

var _ io.ReadWriteCloser = (*Conn)(nil)
