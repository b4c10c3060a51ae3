package transport

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dpienc"
)

// FuzzUnmarshalHello checks hello parsing never panics and accepted
// hellos round-trip.
func FuzzUnmarshalHello(f *testing.F) {
	f.Add(MarshalHello(Hello{PublicKey: make([]byte, 32), Protocol: 2, Mode: 1, Salt0: 7}))
	f.Add(MarshalHello(Hello{PublicKey: make([]byte, 32), HasTrace: true, TraceID: [16]byte{1, 2}, TraceSpan: 99}))
	f.Add(MarshalHello(Hello{PublicKey: make([]byte, 32), HasTrace: true, TraceID: [16]byte{3}, HasSample: true, Sampled: true}))
	f.Add([]byte{})
	f.Add([]byte{32, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := UnmarshalHello(data)
		if err != nil {
			return
		}
		enc := MarshalHello(h)
		h2, err := UnmarshalHello(enc)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if !bytes.Equal(h2.PublicKey, h.PublicKey) || h2.Salt0 != h.Salt0 ||
			h2.Protocol != h.Protocol || h2.Mode != h.Mode || h2.MBPresent != h.MBPresent ||
			h2.HasTrace != h.HasTrace || h2.TraceID != h.TraceID || h2.TraceSpan != h.TraceSpan ||
			h2.HasSample != h.HasSample || h2.Sampled != h.Sampled {
			t.Fatal("hello round trip diverged")
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

// FuzzUnmarshalByteSlices checks the length-prefixed list codec.
func FuzzUnmarshalByteSlices(f *testing.F) {
	f.Add(AppendByteSlices(nil, [][]byte{[]byte("a"), {}, []byte("bcd")}))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		slices, err := UnmarshalByteSlices(data)
		if err != nil {
			return
		}
		if len(slices) > len(data)/4 {
			t.Fatalf("%d entries from %d bytes: more than one per 4-byte length", len(slices), len(data))
		}
		if !bytes.Equal(AppendByteSlices(nil, slices), data) {
			t.Fatal("slice list round trip diverged")
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
