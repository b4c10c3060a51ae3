// Wire format of BlindBox HTTPS. The paper's prototype opens three sockets
// (SSL data, encrypted tokens, garbled-circuit channel, §6); we multiplex
// the three logical channels over one connection with typed records, which
// simplifies middlebox interposition without changing the protocol content.

package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/bbcrypto"
	"repro/internal/dpienc"
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

// MaxRecordLen bounds a record body in the setup phase. The largest
// legitimate records are rule preparation's: one garbled circuit with its
// endpoint labels (0.4 MB) and the OT extension's messages, which grow with
// the fragment count.
const MaxRecordLen = 64 << 20

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

// RecordCapError is the error for a data-phase record whose header announces
// more than its type's cap, or a type the data phase does not carry (Cap
// -1). It is returned before any of the body is read or allocated.
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
// body of its own — the setup phase's reader, whose large records are not
// worth keeping a buffer for.
func ReadRecord(r io.Reader) (RecordType, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxRecordLen {
		return 0, nil, fmt.Errorf("transport: record body %d exceeds cap", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return RecordType(hdr[0]), body, nil
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

// Hello is the cleartext handshake payload. The middlebox sets MBPresent
// when forwarding, informing the endpoints that a rule-preparation
// exchange will follow the handshake. HasTrace marks an optional trailing
// trace-context extension: the 128-bit distributed trace ID plus the root
// span ID, so client, middlebox and server spans of one flow join into
// one trace (DESIGN.md §8). HasSample marks a second optional extension
// carrying the head-sampling decision for the trace, so all three parties
// stream or buffer the same flows. Peers without tracing ignore both.
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
	Sampled   bool // the decision itself (bit0 of the extension flags)
}

// helloTraceExt tags the trace-context extension after the MBPresent
// byte: 1 tag byte + 16 trace-ID bytes + 8 root-span-ID bytes.
// helloSampledExt tags the sampling-decision extension after the trace
// extension: 1 tag byte + 1 flags byte (bit0 = head-sampled). It is only
// valid following a trace extension — a decision is meaningless without
// the trace ID it applies to.
const (
	helloTraceExt      byte = 0x01
	helloTraceExtLen        = 1 + 16 + 8
	helloSampledExt    byte = 0x02
	helloSampledExtLen      = 1 + 1
)

// MarshalHello encodes a Hello.
func MarshalHello(h Hello) []byte {
	out := make([]byte, 0, 32+11+helloTraceExtLen+helloSampledExtLen)
	out = append(out, byte(len(h.PublicKey)))
	out = append(out, h.PublicKey...)
	out = append(out, byte(h.Protocol), h.Mode)
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], h.Salt0)
	out = append(out, s[:]...)
	if h.MBPresent {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	if h.HasTrace {
		out = append(out, helloTraceExt)
		out = append(out, h.TraceID[:]...)
		binary.BigEndian.PutUint64(s[:], h.TraceSpan)
		out = append(out, s[:]...)
		if h.HasSample {
			var flags byte
			if h.Sampled {
				flags = 1
			}
			out = append(out, helloSampledExt, flags)
		}
	}
	return out
}

// UnmarshalHello decodes a Hello. Unknown trailing bytes are ignored for
// forward compatibility; a well-formed trace extension is decoded.
func UnmarshalHello(data []byte) (Hello, error) {
	var h Hello
	if len(data) < 1 {
		return h, errors.New("transport: short hello")
	}
	kl := int(data[0])
	if len(data) < 1+kl+11 {
		return h, errors.New("transport: short hello")
	}
	h.PublicKey = append([]byte(nil), data[1:1+kl]...)
	rest := data[1+kl:]
	h.Protocol = dpienc.Protocol(rest[0])
	h.Mode = rest[1]
	h.Salt0 = binary.BigEndian.Uint64(rest[2:10])
	h.MBPresent = rest[10] == 1
	if ext := rest[11:]; len(ext) >= helloTraceExtLen && ext[0] == helloTraceExt {
		h.HasTrace = true
		copy(h.TraceID[:], ext[1:17])
		h.TraceSpan = binary.BigEndian.Uint64(ext[17:25])
		if ext = ext[helloTraceExtLen:]; len(ext) >= helloSampledExtLen && ext[0] == helloSampledExt {
			h.HasSample = true
			h.Sampled = ext[1]&1 == 1
		}
	}
	return h, nil
}

// AppendHelloTrace appends a trace-context extension to an encoded hello
// that lacks one — what the middlebox does when it traces but the client
// sent no context, so the server can still join the middlebox's trace.
func AppendHelloTrace(encoded []byte, traceID [16]byte, rootSpan uint64) ([]byte, error) {
	h, err := UnmarshalHello(encoded)
	if err != nil {
		return nil, err
	}
	if h.HasTrace {
		return encoded, nil
	}
	if base := 1 + int(encoded[0]) + 11; len(encoded) != base {
		// Unknown trailing extension: leave the hello alone rather than
		// append where no parser would look.
		return encoded, nil
	}
	out := append(append([]byte(nil), encoded...), helloTraceExt)
	out = append(out, traceID[:]...)
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], rootSpan)
	return append(out, s[:]...), nil
}

// AppendHelloSampled appends a sampling-decision extension to an encoded
// hello that carries a trace extension but no decision — what the
// middlebox does after deciding head sampling for a flow whose client
// sent trace context without a decision. A hello without a trace
// extension, with a decision already present, or with unknown trailing
// bytes is returned unchanged (peers then decide locally).
func AppendHelloSampled(encoded []byte, sampled bool) ([]byte, error) {
	h, err := UnmarshalHello(encoded)
	if err != nil {
		return nil, err
	}
	if !h.HasTrace || h.HasSample {
		return encoded, nil
	}
	if base := 1 + int(encoded[0]) + 11 + helloTraceExtLen; len(encoded) != base {
		// Unknown trailing extension after the trace context: leave the
		// hello alone rather than append where no parser would look.
		return encoded, nil
	}
	var flags byte
	if sampled {
		flags = 1
	}
	return append(append([]byte(nil), encoded...), helloSampledExt, flags), nil
}

// SetMBPresent flips the MBPresent flag inside an encoded hello in place —
// what the middlebox does when forwarding handshakes.
func SetMBPresent(encoded []byte) error {
	if len(encoded) < 1 {
		return errors.New("transport: short hello")
	}
	kl := int(encoded[0])
	if len(encoded) < 1+kl+11 {
		return errors.New("transport: short hello")
	}
	encoded[1+kl+10] = 1
	return nil
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

// Rule-preparation subtypes carried inside RecGarble records.
const (
	// SubPrepStart (MB→EP): uint32 fragment count.
	SubPrepStart byte = iota + 1
	// SubCircuit (EP→MB): uint32 index, uint32 len, garbled blob, then
	// the endpoint-input labels (the round-key wires of k and kRG).
	SubCircuit
	// SubOTMsgA (MB→EP): the base-OT first message, one point for all
	// 128 base OTs.
	SubOTMsgA
	// SubOTMsgB (EP→MB): 128 base-OT responses.
	SubOTMsgB
	// SubOTU (MB→EP): the IKNP correction matrix.
	SubOTU
	// SubOTMasked (EP→MB): the masked label pairs.
	SubOTMasked
	// SubPrepDone (MB→EP): setup complete, data may flow.
	SubPrepDone
)

// AppendByteSlices appends list to dst, a uint32 count and then each slice
// behind its uint32 length, growing dst once.
func AppendByteSlices(dst []byte, list [][]byte) []byte {
	total := 4
	for _, s := range list {
		total += 4 + len(s)
	}
	dst = binary.BigEndian.AppendUint32(slices.Grow(dst, total), uint32(len(list)))
	for _, s := range list {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// UnmarshalByteSlices inverts AppendByteSlices.
func UnmarshalByteSlices(data []byte) ([][]byte, error) {
	if len(data) < 4 {
		return nil, errors.New("transport: short slice list")
	}
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	// Every entry carries at least its 4-byte length, so a count the body
	// cannot hold is refused before it sizes an allocation.
	if uint64(n) > uint64(len(data)/4) {
		return nil, errors.New("transport: slice list count exceeds its body")
	}
	out := make([][]byte, n)
	for i := range out {
		if len(data) < 4 {
			return nil, errors.New("transport: truncated slice list")
		}
		l := int(binary.BigEndian.Uint32(data))
		data = data[4:]
		if len(data) < l {
			return nil, errors.New("transport: truncated slice entry")
		}
		out[i] = data[:l:l]
		data = data[l:]
	}
	if len(data) != 0 {
		return nil, errors.New("transport: trailing bytes in slice list")
	}
	return out, nil
}

// MarshalBlocks packs 16-byte blocks.
func MarshalBlocks(blocks []bbcrypto.Block) []byte {
	return AppendBlocks(make([]byte, 0, 4+len(blocks)*bbcrypto.BlockSize), blocks)
}

// AppendBlocks appends the MarshalBlocks encoding of blocks to dst.
func AppendBlocks(dst []byte, blocks []bbcrypto.Block) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(blocks)))
	for i := range blocks {
		dst = append(dst, blocks[i][:]...)
	}
	return dst
}

// AppendBlockPairs appends the MarshalBlocks encoding of the 2·len(pairs)
// blocks of pairs, in order, to dst, growing dst once.
func AppendBlockPairs(dst []byte, pairs [][2]bbcrypto.Block) []byte {
	dst = slices.Grow(dst, 4+2*len(pairs)*bbcrypto.BlockSize)
	dst = binary.BigEndian.AppendUint32(dst, uint32(2*len(pairs)))
	for i := range pairs {
		dst = append(append(dst, pairs[i][0][:]...), pairs[i][1][:]...)
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
