package middlebox

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dpienc"
	"repro/internal/transport"
)

// scriptedConn is the source leg of a forwarding test: each chunk the test
// sends arrives as one read, and a read that finds nothing sent reports on
// idle before it blocks. Once forward reports idle it has done everything
// the records so far asked of it, flushes included, so the test can look at
// what reached the destination without a clock.
type scriptedConn struct {
	net.Conn // nil: forward only reads and sets read deadlines
	in       chan []byte
	idle     chan struct{}
	pending  []byte
}

func newScriptedConn() *scriptedConn {
	return &scriptedConn{in: make(chan []byte), idle: make(chan struct{})}
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	if len(c.pending) == 0 {
		c.idle <- struct{}{}
		b, ok := <-c.in
		if !ok {
			return 0, io.EOF
		}
		c.pending = b
	}
	n := copy(p, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

func (c *scriptedConn) SetReadDeadline(time.Time) error { return nil }

// writeLog is the destination leg: it keeps every Write call.
type writeLog struct {
	net.Conn // nil: forward only writes and sets write deadlines
	mu       sync.Mutex
	writes   [][]byte
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, append([]byte(nil), p...))
	w.mu.Unlock()
	return len(p), nil
}

func (w *writeLog) SetWriteDeadline(time.Time) error { return nil }

func (w *writeLog) all() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([][]byte(nil), w.writes...)
}

// record frames one record.
func record(typ transport.RecordType, body []byte) []byte {
	return append(transport.AppendHeader(nil, typ, len(body)), body...)
}

// forwardRun is forward running on a flow of the one-rule middlebox, from a
// scripted source to a logged destination.
type forwardRun struct {
	src       *scriptedConn
	dst       *writeLog
	mb        *Middlebox
	hit, miss []dpienc.EncryptedToken
	finished  chan struct{}
	err       error // what forward returned, once finished is closed
}

// startForward starts forward under a rule with the given action ("alert"
// or "drop") and waits until it first asks for input.
func startForward(t *testing.T, action string) *forwardRun {
	t.Helper()
	mb, fl, hit, miss := newPoolFlow(t, action, nil)
	r := &forwardRun{src: newScriptedConn(), dst: &writeLog{}, mb: mb, hit: hit, miss: miss, finished: make(chan struct{})}
	go func() {
		r.err = mb.forward(&leg{conn: r.src, rd: bufio.NewReaderSize(r.src, transport.BufSize)}, r.dst, fl)
		close(r.finished)
	}()
	<-r.src.idle
	t.Cleanup(func() {
		close(r.src.in)
		<-r.finished
	})
	return r
}

// end waits for forward to return, failing the test if it asks for more
// input instead.
func (r *forwardRun) end(t *testing.T) error {
	t.Helper()
	select {
	case <-r.finished:
		return r.err
	case <-r.src.idle:
		t.Fatal("forward read on where it should have ended")
		return nil
	}
}

// TestForwardCoalescesAndNeverHolds: a token record and the data record
// behind it that arrive in one read leave in one write; a record that
// arrives alone is delivered before forward waits for the next one.
func TestForwardCoalescesAndNeverHolds(t *testing.T) {
	r := startForward(t, "alert")
	pair := append(record(transport.RecTokens, transport.MarshalTokens(r.miss, false)),
		record(transport.RecData, bytes.Repeat([]byte{0x5A}, 64))...)
	r.src.in <- pair
	<-r.src.idle
	if got := r.dst.all(); len(got) != 1 || !bytes.Equal(got[0], pair) {
		t.Fatalf("token + data pair left in %d writes, want the pair in 1", len(got))
	}

	lone := record(transport.RecData, bytes.Repeat([]byte{0xA5}, 32))
	r.src.in <- lone
	<-r.src.idle // forward is blocked reading what comes next
	if got := r.dst.all(); len(got) != 2 || !bytes.Equal(got[1], lone) {
		t.Fatalf("a lone record followed by silence was held: %d writes", len(got))
	}
}

// TestForwardDropsMatchingDataRecord: under a drop rule, the data record
// behind the token record that completes the match never reaches the
// server, even when the two arrived in one read.
func TestForwardDropsMatchingDataRecord(t *testing.T) {
	r := startForward(t, "drop")
	data := bytes.Repeat([]byte{0x5A}, 64)
	r.src.in <- append(record(transport.RecTokens, transport.MarshalTokens(r.hit, false)), record(transport.RecData, data)...)
	if err := r.end(t); err != nil {
		t.Fatalf("forward of a blocked flow: %v", err)
	}
	for _, w := range r.dst.all() {
		if bytes.Contains(w, data) {
			t.Fatal("the data record that completed a drop match was forwarded")
		}
	}
	if r.mb.Stats().Blocked != 1 {
		t.Fatalf("Blocked = %d, want 1", r.mb.Stats().Blocked)
	}
}

// TestForwardRecordOverCapIsTypedError: a header announcing more than its
// type may carry ends forwarding in a *transport.RecordCapError before any
// body is read, and nothing is forwarded.
func TestForwardRecordOverCapIsTypedError(t *testing.T) {
	r := startForward(t, "alert")
	r.src.in <- transport.AppendHeader(nil, transport.RecData, 64<<20)
	var capErr *transport.RecordCapError
	if err := r.end(t); !errors.As(err, &capErr) {
		t.Fatalf("forward returned %v, want a *transport.RecordCapError", err)
	}
	if got := r.dst.all(); len(got) != 0 {
		t.Fatalf("%d writes after an over-cap record", len(got))
	}
}

// TestForwardRefusesShortSaltRecord: a salt announcement whose body is not
// 8 bytes ends the flow like a malformed token record, and is not
// forwarded.
func TestForwardRefusesShortSaltRecord(t *testing.T) {
	r := startForward(t, "alert")
	r.src.in <- record(transport.RecSalt, []byte{1, 2, 3, 4})
	if err := r.end(t); err == nil {
		t.Fatal("forward accepted a 4-byte salt announcement")
	}
	if got := r.dst.all(); len(got) != 0 {
		t.Fatalf("%d writes after a short salt announcement", len(got))
	}
}
