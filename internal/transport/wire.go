// Wire format of BlindBox HTTPS. The paper's prototype opens three sockets
// (SSL data, encrypted tokens, garbled-circuit channel, §6); we multiplex
// the three logical channels over one connection with typed records, which
// simplifies middlebox interposition without changing the protocol content.

package transport

import (
	"bufio"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/bbcrypto"
	"repro/internal/dpienc"
	"repro/internal/obs"
	"repro/internal/ruleprep"
	"repro/internal/tokenize"
)

// RecordType identifies the logical channel of a record.
type RecordType byte

const (
	// RecHello carries the client handshake: X25519 public key and the
	// connection configuration.
	RecHello RecordType = iota + 1
	// RecHelloReply carries the server handshake.
	RecHelloReply
	// RecData is an AES-GCM-protected application data record (the
	// "primary SSL stream").
	RecData
	// RecTokens carries DPIEnc-encrypted tokens.
	RecTokens
	// RecSalt announces a counter-table reset (the new salt0).
	RecSalt
	// RecGarble carries a rule-preparation message between the middlebox
	// and one endpoint; it is never forwarded across the middlebox.
	RecGarble
	// RecClose signals an orderly end of the sender's stream.
	RecClose
)

// MaxRecordLen bounds a record body that WriteRecord frames. The largest
// legitimate records are rule preparation's, which every party reads at
// their exact lengths (PrepPort).
const MaxRecordLen = 64 << 20

// maxHelloLen bounds an unauthenticated hello: today's longest is 71 bytes
// (key, parameters, trace and sampling extensions), the rest is room for
// extensions to come.
const maxHelloLen = 1 << 10

// maxDataRecord bounds the plaintext of one data record; larger writes are
// split. 16 KiB matches TLS record sizing.
const maxDataRecord = 16 << 10

// headerLen is a record header: the type byte and the body length.
const headerLen = 5

// tagSize is the AES-GCM tag a sealed data record carries.
const tagSize = 16

// BufSize is the buffer of every connection's bufio.Reader and of the
// middlebox's bufio.Writer: twice the largest data record, so the token and
// data records of a write of a few KiB arrive in one read and leave in one
// write. Larger bodies bypass the buffer; bufio reads and writes them
// straight through.
const BufSize = 32 << 10

// dataRecordCap is the largest body a record of type typ carries once rule
// preparation is done — what a conforming sender emits for one chunk of at
// most maxDataRecord bytes — or -1 for a type the data phase does not carry.
func dataRecordCap(typ RecordType) int {
	switch typ {
	case RecData:
		return 1 + maxDataRecord + tagSize // kind byte, chunk, tag
	case RecTokens:
		return 4 + tokenize.MaxTokens(maxDataRecord)*tokenSize(true)
	case RecSalt:
		return 8
	case RecClose:
		return 0
	}
	return -1
}

// RecordCapError is the error for a record whose header announces more than
// its cap — its type's in the data phase, the expected message's in rule
// preparation — or a type the data phase does not carry (Cap -1). It is
// returned before any of the body is read or allocated.
type RecordCapError struct {
	Type RecordType
	Len  uint32
	Cap  int
}

// Error implements error.
func (e *RecordCapError) Error() string {
	if e.Cap < 0 {
		return fmt.Sprintf("transport: record type %d after rule preparation", e.Type)
	}
	return fmt.Sprintf("transport: record type %d of %d bytes exceeds its cap of %d", e.Type, e.Len, e.Cap)
}

// WriteRecord frames and writes one record.
func WriteRecord(w io.Writer, typ RecordType, body []byte) error {
	if len(body) > MaxRecordLen {
		return fmt.Errorf("transport: record body %d exceeds cap", len(body))
	}
	var hdr [headerLen]byte
	hdr[0] = byte(typ)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// AppendHeader appends the header of a record of type typ with an n-byte
// body to b.
func AppendHeader(b []byte, typ RecordType, n int) []byte {
	return binary.BigEndian.AppendUint32(append(b, byte(typ)), uint32(n))
}

// RecordBuffered reports whether rd already holds the whole next record, so
// that reading it cannot block.
func RecordBuffered(rd *bufio.Reader) bool {
	n := rd.Buffered() // checked first: Peek past it would read
	if n < headerLen {
		return false
	}
	hdr, _ := rd.Peek(headerLen)
	return int64(n-headerLen) >= int64(binary.BigEndian.Uint32(hdr[1:]))
}

// ReadRecord reads one framed record of at most MaxRecordLen bytes into a
// body of its own.
func ReadRecord(r io.Reader) (RecordType, []byte, error) {
	return readRecord(r, MaxRecordLen, false)
}

// errShortRecord is readRecord's error for a record under an exact length.
var errShortRecord = errors.New("transport: short record")

// readRecord reads a record of at most limit bytes, exactly limit when
// exact is set, into a body of its own. A header announcing more is a
// *RecordCapError, or less when exact errShortRecord, before the body is
// read or allocated.
func readRecord(r io.Reader, limit int, exact bool) (RecordType, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ, n := RecordType(hdr[0]), binary.BigEndian.Uint32(hdr[1:])
	if int64(n) > int64(limit) {
		return 0, nil, &RecordCapError{Type: typ, Len: n, Cap: limit}
	}
	if exact && int64(n) != int64(limit) {
		return 0, nil, errShortRecord
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return typ, body, nil
}

// ReadHello reads a hello record of type want, RecHello or RecHelloReply,
// of at most maxHelloLen bytes and parses it.
func ReadHello(r io.Reader, want RecordType) (Hello, error) {
	typ, body, err := readRecord(r, maxHelloLen, false)
	if err != nil {
		return Hello{}, err
	}
	if typ != want {
		return Hello{}, fmt.Errorf("transport: expected hello record %d, got %d", want, typ)
	}
	return UnmarshalHello(body)
}

// PrepPort is one side's rule-preparation Port: each message is one
// RecGarble record, written to W and read from R. A body of any length but
// the expected message's is refused from its header, a longer one as a
// *RecordCapError; every other refusal is a *ruleprep.MessageError.
type PrepPort struct {
	R io.Reader
	W io.Writer
}

// Send implements ruleprep.Port.
func (p PrepPort) Send(msg []byte) error { return WriteRecord(p.W, RecGarble, msg) }

// Recv implements ruleprep.Port.
func (p PrepPort) Recv(want byte, size int) ([]byte, error) {
	typ, msg, err := readRecord(p.R, 1+size, true)
	if err == errShortRecord || err == nil && (typ != RecGarble || msg[0] != want) {
		return nil, &ruleprep.MessageError{Want: want, Size: size}
	}
	if err != nil {
		return nil, err
	}
	return msg[1:], nil
}

// ReadRecordInto reads one data-phase record into buf's backing array,
// growing it only when it is too small. The body aliases buf and is valid
// until the next read into the same buffer; callers keep the returned body
// as their buffer. The header is checked against the type's data-phase cap
// before the body is read: a record over it is a *RecordCapError.
func ReadRecordInto(r io.Reader, buf []byte) (RecordType, []byte, error) {
	// The header is read into buf too: a local array passed to r.Read would
	// escape, one allocation per record.
	hdr := slices.Grow(buf[:0], headerLen)[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	typ, n := RecordType(hdr[0]), binary.BigEndian.Uint32(hdr[1:])
	if c := dataRecordCap(typ); int64(n) > int64(c) {
		return 0, nil, &RecordCapError{Type: typ, Len: n, Cap: c}
	}
	body := slices.Grow(hdr[:0], int(n))[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return typ, body, nil
}

// DataRecordOverhead is what a data record's body adds to its chunk.
const DataRecordOverhead = 1 + tagSize

// dataAD is every data record's additional data: its record type.
var dataAD = []byte{byte(RecData)}

// DataCipher owns one direction's data-record seal: AES-GCM under kSSL over
// the kind byte and chunk, the record type as additional data, and a nonce
// of the direction byte (1 server to client) then the sequence number in
// bytes 4–11. A Conn seals and opens with two; the middlebox's decryption
// element opens with one once it holds kSSL.
type DataCipher struct {
	aead  cipher.AEAD
	nonce [12]byte
	seq   uint64
}

// NewDataCipher returns the cipher of one direction whose next record has
// sequence number seq.
func NewDataCipher(kSSL bbcrypto.Block, serverToClient bool, seq uint64) *DataCipher {
	d := &DataCipher{aead: bbcrypto.NewGCM(kSSL), seq: seq}
	if serverToClient {
		d.nonce[0] = 1
	}
	return d
}

// Open opens the next record's body into dst, which may alias it, and
// returns kind byte and chunk; its sequence number is spent either way.
func (d *DataCipher) Open(dst, body []byte) ([]byte, error) {
	binary.BigEndian.PutUint64(d.nonce[4:], d.seq)
	d.seq++
	return d.aead.Open(dst, d.nonce[:], body, dataAD)
}

// seal appends the next record's body, plaintext sealed, to dst; plaintext
// may sit just past dst's length and is then sealed in place.
func (d *DataCipher) seal(dst, plaintext []byte) []byte {
	binary.BigEndian.PutUint64(d.nonce[4:], d.seq)
	d.seq++
	return d.aead.Seal(dst, d.nonce[:], plaintext, dataAD)
}

// Hello is the cleartext handshake payload, parsed once and written once:
// UnmarshalHello accepts exactly what MarshalHello writes. The middlebox
// forwards the re-encoding of each hello it parsed with MBPresent set,
// informing the endpoints that a rule-preparation exchange will follow
// the handshake. HasTrace marks the trace-context extension: the 128-bit
// distributed trace ID plus the root span ID, so client, middlebox and
// server spans of one flow join into one trace (DESIGN.md §8). HasSample
// marks a second extension, only ever behind the first, carrying the
// head-sampling decision for the trace, so all three parties stream or
// buffer the same flows. JoinTrace settles both.
type Hello struct {
	PublicKey []byte // X25519, 32 bytes
	Protocol  dpienc.Protocol
	Mode      byte // tokenize.Mode
	Salt0     uint64
	MBPresent bool
	HasTrace  bool
	TraceID   [16]byte
	TraceSpan uint64
	HasSample bool // a head-sampling decision rides on the hello
	Sampled   bool // the decision itself (the extension's flag byte)
}

// helloTraceExt tags the trace-context extension after the MBPresent
// byte: 1 tag byte + 16 trace-ID bytes + 8 root-span-ID bytes.
// helloSampledExt tags the sampling-decision extension after the trace
// extension: 1 tag byte + 1 flag byte. It is only valid following a trace
// extension — a decision is meaningless without the trace ID it applies
// to.
const (
	helloTraceExt      byte = 0x01
	helloTraceExtLen        = 1 + 16 + 8
	helloSampledExt    byte = 0x02
	helloSampledExtLen      = 1 + 1
)

var errMalformedHello = errors.New("transport: malformed hello")

// MarshalHello encodes a Hello; a decision without trace context is not
// written.
func MarshalHello(h Hello) []byte {
	out := make([]byte, 0, 32+11+helloTraceExtLen+helloSampledExtLen)
	out = append(out, byte(len(h.PublicKey)))
	out = append(out, h.PublicKey...)
	out = append(out, byte(h.Protocol), h.Mode)
	out = binary.BigEndian.AppendUint64(out, h.Salt0)
	out = append(out, flagByte(h.MBPresent))
	if h.HasTrace {
		out = append(out, helloTraceExt)
		out = append(out, h.TraceID[:]...)
		out = binary.BigEndian.AppendUint64(out, h.TraceSpan)
		if h.HasSample {
			out = append(out, helloSampledExt, flagByte(h.Sampled))
		}
	}
	return out
}

// flagByte is a hello flag's byte: 1 for true, 0 for false.
func flagByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// UnmarshalHello decodes a Hello. It accepts exactly what MarshalHello
// writes (DESIGN.md §10, "Parse ambiguities" row 9): a flag byte other
// than 0 or 1, an extension out of place and any trailing byte are
// errors, so an accepted hello has one encoding. A mode other than Window
// and Delimiter, or a protocol other than I, II and III, is an error too
// (row 14): no party runs one.
func UnmarshalHello(data []byte) (Hello, error) {
	if len(data) < 1 || len(data) < 1+int(data[0])+11 {
		return Hello{}, errMalformedHello
	}
	kl := int(data[0])
	rest := data[1+kl:]
	h := Hello{
		PublicKey: append([]byte(nil), data[1:1+kl]...),
		Protocol:  dpienc.Protocol(rest[0]),
		Mode:      rest[1],
		Salt0:     binary.BigEndian.Uint64(rest[2:10]),
		MBPresent: rest[10] == 1,
	}
	flags := rest[10] // OR of the flag bytes: above 1 if either is
	ext := rest[11:]
	if len(ext) >= helloTraceExtLen && ext[0] == helloTraceExt {
		h.HasTrace = true
		copy(h.TraceID[:], ext[1:17])
		h.TraceSpan = binary.BigEndian.Uint64(ext[17:25])
		ext = ext[helloTraceExtLen:]
		if len(ext) == helloSampledExtLen && ext[0] == helloSampledExt {
			h.HasSample, h.Sampled = true, ext[1] == 1
			flags |= ext[1]
			ext = nil
		}
	}
	if len(ext) != 0 || flags > 1 || h.Mode > byte(tokenize.Delimiter) ||
		h.Protocol < dpienc.ProtocolI || h.Protocol > dpienc.ProtocolIII {
		return Hello{}, errMalformedHello
	}
	return h, nil
}

// JoinTrace settles the flow's trace context and head-sampling decision
// on h, the first writer winning: a hello without trace context gets a
// fresh root, written in (root true), and, when rec is set, a hello
// without a decision gets rec's. It returns the context the hello names
// and the decision it carries (false when none). The client joins its own
// hello, a tracing middlebox the client's before forwarding it, and the
// server the hello it receives (DESIGN.md §8).
func (h *Hello) JoinTrace(rec *obs.Recorder) (ctx obs.SpanCtx, head, root bool) {
	if h.HasTrace {
		ctx = obs.JoinSpanCtx(obs.TraceID(h.TraceID), h.TraceSpan)
	} else {
		ctx, root = obs.NewSpanCtx(), true
		h.HasTrace, h.TraceID, h.TraceSpan = true, ctx.Trace, ctx.Span
	}
	if rec != nil && !h.HasSample {
		h.HasSample, h.Sampled = true, rec.Decide(ctx.Trace)
	}
	return ctx, h.HasSample && h.Sampled, root
}

// Token wire format: offset (8) + C1 (5) + optional C2 (16, Protocol III).
func tokenSize(protoIII bool) int {
	if protoIII {
		return 8 + dpienc.CiphertextSize + bbcrypto.BlockSize
	}
	return 8 + dpienc.CiphertextSize
}

// MarshalTokens encodes a token batch into a buffer of its own.
func MarshalTokens(toks []dpienc.EncryptedToken, protoIII bool) []byte {
	return appendTokens(nil, toks, protoIII)
}

// appendTokens appends the MarshalTokens encoding of toks to dst.
func appendTokens(dst []byte, toks []dpienc.EncryptedToken, protoIII bool) []byte {
	sz := tokenSize(protoIII)
	start := len(dst)
	dst = slices.Grow(dst, 4+len(toks)*sz)[:start+4+len(toks)*sz]
	out := dst[start:]
	binary.BigEndian.PutUint32(out, uint32(len(toks)))
	at := out[4:]
	for i := range toks {
		t := &toks[i]
		binary.BigEndian.PutUint64(at, uint64(t.Offset))
		copy(at[8:], t.C1[:])
		if protoIII {
			copy(at[8+dpienc.CiphertextSize:], t.C2[:])
		}
		at = at[sz:]
	}
	return dst
}

// UnmarshalTokens decodes a token batch into a slice of its own.
func UnmarshalTokens(data []byte, protoIII bool) ([]dpienc.EncryptedToken, error) {
	return UnmarshalTokensInto(nil, data, protoIII)
}

// UnmarshalTokensInto is UnmarshalTokens writing into dst's backing array
// from index 0, growing it only when it is too small; the result aliases
// dst.
func UnmarshalTokensInto(dst []dpienc.EncryptedToken, data []byte, protoIII bool) ([]dpienc.EncryptedToken, error) {
	if len(data) < 4 {
		return nil, errors.New("transport: short token batch")
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	sz := tokenSize(protoIII)
	if len(data) != n*sz {
		return nil, fmt.Errorf("transport: token batch size %d != %d*%d", len(data), n, sz)
	}
	toks := dpienc.GrowTokenBuf(dst, n)
	for i := range toks {
		t := &toks[i]
		t.Offset = int(binary.BigEndian.Uint64(data))
		copy(t.C1[:], data[8:])
		if protoIII {
			copy(t.C2[:], data[8+dpienc.CiphertextSize:])
		} else {
			t.C2 = bbcrypto.Block{}
		}
		data = data[sz:]
	}
	return toks, nil
}

// MarshalBlocks packs 16-byte blocks: a uint32 count, then the blocks.
func MarshalBlocks(blocks []bbcrypto.Block) []byte {
	dst := make([]byte, 0, 4+len(blocks)*bbcrypto.BlockSize)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(blocks)))
	for i := range blocks {
		dst = append(dst, blocks[i][:]...)
	}
	return dst
}

// UnmarshalBlocks inverts MarshalBlocks.
func UnmarshalBlocks(data []byte) ([]bbcrypto.Block, error) {
	if len(data) < 4 {
		return nil, errors.New("transport: short block list")
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if len(data) != n*bbcrypto.BlockSize {
		return nil, errors.New("transport: block list size mismatch")
	}
	out := make([]bbcrypto.Block, n)
	for i := range out {
		copy(out[i][:], data[i*bbcrypto.BlockSize:])
	}
	return out, nil
}
