package transport

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/dpienc"
)

// FuzzUnmarshalHello checks hello parsing never panics and accepts only
// canonical bytes: MarshalHello(UnmarshalHello(b)) == b for every accepted
// b (DESIGN.md §10 row 9), whose mode and protocol are ones a party runs
// (row 14).
func FuzzUnmarshalHello(f *testing.F) {
	f.Add(MarshalHello(Hello{PublicKey: make([]byte, 32), Protocol: 2, Mode: 1, Salt0: 7}))
	f.Add(MarshalHello(Hello{PublicKey: make([]byte, 32), Protocol: dpienc.ProtocolII, HasTrace: true, TraceID: [16]byte{1, 2}, TraceSpan: 99}))
	sampled := MarshalHello(Hello{PublicKey: make([]byte, 32), Protocol: dpienc.ProtocolII, HasTrace: true, TraceID: [16]byte{3}, HasSample: true, Sampled: true})
	f.Add(sampled)
	f.Add([]byte{})
	f.Add([]byte{32, 1, 2, 3})
	// Forms each refused: a trailing byte, a flag byte of 2, an unknown or
	// out-of-place extension, a truncated one, a mode or protocol no party
	// runs (row 14).
	plain := MarshalHello(Hello{PublicKey: make([]byte, 32), Protocol: dpienc.ProtocolII})
	traced := sampled[:len(sampled)-helloSampledExtLen]
	with := func(b []byte, tail ...byte) []byte { return append(slices.Clip(b), tail...) }
	for _, b := range [][]byte{
		with(plain, 0),
		with(plain[:len(plain)-1], 2), // MBPresent
		with(sampled[:len(sampled)-1], 2),
		with(plain, helloSampledExt, 1),
		with(plain, 0x7F, 0x7F),
		with(traced, 0),
		with(traced, traced[len(plain):]...),
		with(sampled, 0),
		sampled[:len(sampled)-1],
		traced[:len(traced)-1],
		MarshalHello(Hello{PublicKey: make([]byte, 32), Protocol: dpienc.ProtocolII, Mode: 7}),
		MarshalHello(Hello{PublicKey: make([]byte, 32), Protocol: 9}),
		MarshalHello(Hello{PublicKey: make([]byte, 32)}),
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := UnmarshalHello(data)
		if err != nil {
			return
		}
		if enc := MarshalHello(h); !bytes.Equal(enc, data) {
			t.Fatalf("accepted % x, which re-encodes as % x", data, enc)
		}
		if h.Mode > 1 || h.Protocol < dpienc.ProtocolI || h.Protocol > dpienc.ProtocolIII {
			t.Fatalf("accepted mode %d, protocol %d", h.Mode, h.Protocol)
		}
	})
}

// FuzzUnmarshalTokens checks token-batch parsing on arbitrary bytes for
// both protocol families.
func FuzzUnmarshalTokens(f *testing.F) {
	f.Add(MarshalTokens([]dpienc.EncryptedToken{{Offset: 3}}, false), false)
	f.Add(MarshalTokens([]dpienc.EncryptedToken{{Offset: 3}, {Offset: 9}}, true), true)
	f.Add([]byte{0, 0, 0, 200}, false)
	f.Fuzz(func(t *testing.T, data []byte, protoIII bool) {
		toks, err := UnmarshalTokens(data, protoIII)
		if err != nil {
			return
		}
		enc := MarshalTokens(toks, protoIII)
		if !bytes.Equal(enc, data) {
			t.Fatalf("token batch round trip diverged (%d tokens)", len(toks))
		}
	})
}

// FuzzReadRecord checks record framing against arbitrary byte streams, and
// that ReadRecordInto, reading the stream record by record into one reused
// buffer, returns what ReadRecord returns — or a *RecordCapError for a
// record over its data-phase cap.
func FuzzReadRecord(f *testing.F) {
	var buf bytes.Buffer
	WriteRecord(&buf, RecData, []byte("payload"))
	f.Add(buf.Bytes())
	f.Add([]byte{byte(RecClose), 0, 0, 0, 0})
	f.Add([]byte{1, 255, 255, 255, 255})
	buf.Reset()
	WriteRecord(&buf, RecTokens, MarshalTokens([]dpienc.EncryptedToken{{Offset: 3}}, false))
	WriteRecord(&buf, RecData, bytes.Repeat([]byte{7}, 40))
	WriteRecord(&buf, RecSalt, make([]byte, 8))
	WriteRecord(&buf, RecData, []byte("short"))
	WriteRecord(&buf, RecClose, nil)
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, err := ReadRecord(bytes.NewReader(data))
		if err == nil {
			var out bytes.Buffer
			if err := WriteRecord(&out, typ, body); err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
				t.Fatal("record round trip diverged")
			}
		}

		r, rInto := bytes.NewReader(data), bytes.NewReader(data)
		var reused []byte
		for {
			typ, body, err := ReadRecord(r)
			typInto, bodyInto, errInto := ReadRecordInto(rInto, reused)
			var capErr *RecordCapError
			if errors.As(errInto, &capErr) {
				if err == nil && (typ != capErr.Type || uint32(len(body)) != capErr.Len || len(body) <= capErr.Cap) {
					t.Fatalf("cap error %v for a record of type %d, %d bytes", capErr, typ, len(body))
				}
				return
			}
			if (err == nil) != (errInto == nil) {
				t.Fatalf("ReadRecord: %v, ReadRecordInto: %v", err, errInto)
			}
			if err != nil {
				return
			}
			if typ != typInto || !bytes.Equal(body, bodyInto) {
				t.Fatalf("ReadRecordInto returned type %d %q, ReadRecord type %d %q", typInto, bodyInto, typ, body)
			}
			reused = bodyInto
		}
	})
}
