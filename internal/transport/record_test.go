package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dpienc"
	"repro/internal/tokenize"
)

// writeLog is a net.Conn that keeps a copy of every Write call made on it.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, append([]byte(nil), p...))
	w.mu.Unlock()
	return w.Conn.Write(p)
}

// since returns the writes made after the first n.
func (w *writeLog) since(n int) [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([][]byte(nil), w.writes[n:]...)
}

// recordTypes splits one socket write into its records' types; every write
// must hold whole records.
func recordTypes(t *testing.T, b []byte) []RecordType {
	t.Helper()
	var types []RecordType
	for len(b) > 0 {
		if len(b) < headerLen {
			t.Fatalf("write ends inside a record header: % x", b)
		}
		n := headerLen + int(binary.BigEndian.Uint32(b[1:]))
		if len(b) < n {
			t.Fatalf("write ends inside a record body (%d of %d bytes)", len(b), n)
		}
		types = append(types, RecordType(b[0]))
		b = b[n:]
	}
	return types
}

// pipePair runs the client and server handshakes over net.Pipe, the client
// writing through wrap. The server is read by the caller.
func pipePair(t *testing.T, cfg ConnConfig, wrap func(net.Conn) net.Conn) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	type result struct {
		c   *Conn
		err error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := Server(b, cfg)
		ch <- result{c, err}
	}()
	client, err := Client(wrap(a), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	return client, r.c
}

// TestOneSocketWritePerWrite: a text Write, a Write that resets the counter
// table, and CloseWrite each leave in exactly one socket write that holds
// all of their records.
func TestOneSocketWritePerWrite(t *testing.T) {
	var log *writeLog
	client, server := pipePair(t, ConnConfig{Core: core.DefaultConfig()}, func(c net.Conn) net.Conn {
		log = &writeLog{Conn: c}
		return log
	})
	received := make(chan []byte, 1)
	go func() {
		got, _ := io.ReadAll(server)
		received <- got
	}()
	// One whole data record of text per Write, until one crosses the
	// counter table's reset interval.
	msg := bytes.Repeat([]byte("GET /index.html?user=alice HTTP/1.1\r\n"), maxDataRecord)[:maxDataRecord]
	var sent int
	oneWrite := func(op string, do func() error) []RecordType {
		t.Helper()
		before := len(log.since(0))
		if err := do(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		writes := log.since(before)
		if len(writes) != 1 {
			t.Fatalf("%s: %d socket writes, want 1", op, len(writes))
		}
		return recordTypes(t, writes[0])
	}
	write := func() error {
		sent += len(msg)
		_, err := client.Write(msg)
		return err
	}
	for reset := false; !reset; {
		if sent > 4<<20 {
			t.Fatal("no counter-table reset in 4 MiB")
		}
		switch got := oneWrite("Write", write); {
		case slices.Equal(got, []RecordType{RecTokens, RecData}):
		case slices.Equal(got, []RecordType{RecSalt, RecTokens, RecData}):
			reset = true
		default:
			t.Fatalf("Write: records %v", got)
		}
	}
	if got := oneWrite("CloseWrite", client.CloseWrite); !slices.Equal(got, []RecordType{RecTokens, RecClose}) {
		t.Fatalf("CloseWrite: records %v", got)
	}
	if got := <-received; len(got) != sent {
		t.Fatalf("server read %d bytes, want the %d written", len(got), sent)
	}
}

// TestSteadyStateRecordAllocs pins that one record allocates nothing once
// a connection's buffers have grown: a Write and the peer's Read of it,
// counted across both goroutines. Every buffer either side touches belongs
// to its Conn. The write deadline is off because
// net.Pipe allocates a timer for each one; a TCP socket does not. Skipped
// under -race, whose instrumentation allocates on its own account.
func TestSteadyStateRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := ConnConfig{Core: core.DefaultConfig(), Timeouts: Timeouts{Write: NoTimeout}}
	client, server := pipePair(t, cfg, func(c net.Conn) net.Conn { return c })
	text := []byte(strings.Repeat("GET /search?q=encrypted+inspection HTTP/1.1\r\n", 6)[:256])
	for _, tc := range []struct {
		name    string
		payload []byte
		binary  bool
	}{
		{"256 B text", text, false},
		{"16 KiB binary", bytes.Repeat([]byte{0xA5}, 16<<10), true},
	} {
		buf := make([]byte, len(tc.payload))
		reads, done := make(chan int), make(chan error)
		go func() {
			for n := range reads {
				_, err := io.ReadFull(server, buf[:n])
				done <- err
			}
		}()
		roundTrip := func() {
			reads <- len(tc.payload)
			var err error
			if tc.binary {
				_, err = client.WriteBinary(tc.payload)
			} else {
				_, err = client.Write(tc.payload)
			}
			if rerr := <-done; err == nil {
				err = rerr
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			roundTrip()
		}
		got := testing.AllocsPerRun(100, roundTrip)
		close(reads)
		if got != 0 {
			t.Errorf("%s: %v allocs per Write + Read, want 0", tc.name, got)
		}
	}
}

// TestConformingRecordsFitTheirCaps: the largest records a conforming sender
// emits, under every protocol and both tokenizer modes, are accepted by the
// capped reader. Alternating word bytes and keyword delimiters give the
// delimiter tokenizer its most tokens per byte.
func TestConformingRecordsFitTheirCaps(t *testing.T) {
	worst := bytes.Repeat([]byte("a?"), maxDataRecord/2)
	for _, p := range []dpienc.Protocol{dpienc.ProtocolI, dpienc.ProtocolII, dpienc.ProtocolIII} {
		for _, mode := range []tokenize.Mode{tokenize.Window, tokenize.Delimiter} {
			client, server := pipePair(t, ConnConfig{Core: core.Config{Protocol: p, Mode: mode}}, func(c net.Conn) net.Conn { return c })
			done := make(chan error, 1)
			go func() {
				for _, w := range []func([]byte) (int, error){client.Write, client.Write, client.WriteBinary} {
					if _, err := w(worst); err != nil {
						done <- err
						return
					}
				}
				done <- client.CloseWrite()
			}()
			got, err := io.ReadAll(server)
			if err != nil {
				t.Fatalf("protocol %d, %s: %v", p, mode, err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if len(got) != 3*len(worst) {
				t.Fatalf("protocol %d, %s: read %d bytes, want %d", p, mode, len(got), 3*len(worst))
			}
		}
	}
}

// TestRecordOverCapIsTypedError: after the handshake, a header announcing
// more than its type may carry — or a type the data phase has no place for —
// ends Read in a *RecordCapError, before any body arrives.
func TestRecordOverCapIsTypedError(t *testing.T) {
	for _, hdr := range []struct {
		typ RecordType
		n   int
	}{
		{RecData, dataRecordCap(RecData) + 1},
		{RecTokens, 64 << 20},
		{RecSalt, 9},
		{RecClose, 1},
		{RecGarble, 0},
	} {
		client, server := pipePair(t, ConnConfig{Core: core.DefaultConfig()}, func(c net.Conn) net.Conn { return c })
		go func() {
			// The header alone: a reader that waited for the body gets EOF.
			_, _ = client.raw.Write(AppendHeader(nil, hdr.typ, hdr.n))
			_ = client.raw.Close()
		}()
		_, err := server.Read(make([]byte, 16))
		var capErr *RecordCapError
		if !errors.As(err, &capErr) || capErr.Type != hdr.typ || capErr.Len != uint32(hdr.n) {
			t.Fatalf("type %d, %d bytes: Read returned %v, want a *RecordCapError", hdr.typ, hdr.n, err)
		}
	}
}

// saltEdit is a client transport that, once armed, passes each salt
// announcement of a socket write through edit: the body to send instead,
// or nil to drop the record. Every data-phase write holds whole records.
type saltEdit struct {
	net.Conn
	armed bool
	edit  func(body []byte) []byte
}

func (s *saltEdit) Write(p []byte) (int, error) {
	if !s.armed {
		return s.Conn.Write(p)
	}
	var out []byte
	for b := p; len(b) > 0; {
		rec := b[:headerLen+int(binary.BigEndian.Uint32(b[1:]))]
		b = b[len(rec):]
		if RecordType(rec[0]) == RecSalt {
			body := s.edit(rec[headerLen:])
			if body == nil {
				continue
			}
			rec = append(AppendHeader(nil, RecSalt, len(body)), body...)
		}
		out = append(out, rec...)
	}
	if _, err := s.Conn.Write(out); err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestSaltAnnouncementsChecked: the middlebox re-keys its engine to every
// salt announcement, so the receiver holds each one to the counter reset
// its validator makes at the next data record (DESIGN.md §10 row 10). A
// lying, extra, short, rewritten, dropped or dangling announcement ends
// Read in a *SaltError wrapping core.ErrTokenMismatch, and the record it
// concerns is never handed out.
func TestSaltAnnouncementsChecked(t *testing.T) {
	small := []byte("GET /attackkw HTTP/1.1\r\n")
	// Past the 1 MiB reset interval: the client announces one reset.
	large := bytes.Repeat([]byte("words and more words across resets "), 40000)
	salt := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	for _, tc := range []struct {
		name    string
		extra   [][]byte            // salt records the client sends before its payload
		edit    func([]byte) []byte // what the wire does to the client's own announcements
		payload []byte
	}{
		{name: "lying announcement", extra: [][]byte{salt(0xdeadbeef)}, payload: small},
		{name: "second announcement", extra: [][]byte{salt(1), salt(2)}, payload: small},
		{name: "short announcement", extra: [][]byte{{1, 2, 3, 4}}, payload: small},
		{name: "announcement pending at close", extra: [][]byte{salt(7)}},
		{name: "dropped announcement", edit: func([]byte) []byte { return nil }, payload: large},
		{name: "rewritten announcement", edit: func(b []byte) []byte {
			return salt(binary.BigEndian.Uint64(b) + 1)
		}, payload: large},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := &saltEdit{edit: tc.edit}
			client, server := pipePair(t, ConnConfig{Core: core.DefaultConfig()}, func(c net.Conn) net.Conn {
				wire.Conn = c
				return wire
			})
			wire.armed = tc.edit != nil
			go func() {
				// Writes fail once the server stops reading and the pipe closes.
				for _, body := range tc.extra {
					if _, err := wire.Conn.Write(append(AppendHeader(nil, RecSalt, len(body)), body...)); err != nil {
						return
					}
				}
				if _, err := client.Write(tc.payload); err == nil {
					_ = client.CloseWrite()
				}
			}()
			got, err := io.ReadAll(server)
			var saltErr *SaltError
			if !errors.As(err, &saltErr) || !errors.Is(err, core.ErrTokenMismatch) {
				t.Fatalf("Read ended in %v after %d bytes, want a *SaltError", err, len(got))
			}
			// Extra records come first; an edited announcement rides with the
			// record that resets.
			if len(got) > 0 && (len(tc.extra) > 0 || len(got) >= len(tc.payload) || !bytes.HasPrefix(tc.payload, got)) {
				t.Fatalf("%d of %d bytes handed out, want what precedes the bad announcement", len(got), len(tc.payload))
			}
		})
	}
}
