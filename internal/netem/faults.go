// Deterministic fault injection: the chaos half of the link emulator.
//
// The Model/Throttle half of this package reproduces the paper's
// well-behaved links (Figs. 3–4); this half produces the misbehaving ones
// a production middlebox must survive — added latency, indefinite stalls,
// connection resets, truncated writes and corrupted bytes. Faults trigger
// at byte offsets of the wrapped connection's read or write stream, not at
// wall-clock times, so a seeded schedule replays identically run-to-run:
// the chaos suite (chaos_e2e_test.go), which holds the fault-tolerance
// contract, relies on that determinism.

package netem

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// FaultKind enumerates the injectable fault classes.
type FaultKind int

// The fault classes, roughly ordered from benign to destructive.
const (
	// FaultLatency delays the triggering operation by Dur, once.
	FaultLatency FaultKind = iota
	// FaultStall blocks the triggering operation for Dur (or until the
	// connection is closed) — a peer that stops draining its socket.
	FaultStall
	// FaultCorrupt XOR-flips the low bit of up to Span bytes of the
	// triggering operation's data — line noise below the TCP checksum.
	FaultCorrupt
	// FaultTruncate delivers only part of the triggering write, then
	// closes the connection — a peer crashing mid-record.
	FaultTruncate
	// FaultReset closes the connection and fails the triggering
	// operation with ErrInjectedReset — an RST on the wire.
	FaultReset
)

// String names the fault kind for logs and experiment output.
func (k FaultKind) String() string {
	switch k {
	case FaultLatency:
		return "latency"
	case FaultStall:
		return "stall"
	case FaultCorrupt:
		return "corrupt"
	case FaultTruncate:
		return "truncate"
	case FaultReset:
		return "reset"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// ErrInjectedReset is the error surfaced by FaultReset and FaultTruncate:
// callers of the chaos suite match it to distinguish injected teardown
// from real bugs.
var ErrInjectedReset = errors.New("netem: injected connection reset")

// Fault is one scheduled fault. It fires at most once, on the first read
// (OnRead) or write (!OnRead) that begins at or past After bytes of that
// direction's cumulative stream.
type Fault struct {
	// Kind selects the fault class.
	Kind FaultKind
	// After is the cumulative byte offset (per direction) that arms the
	// fault; 0 fires on the first operation.
	After int64
	// OnRead applies the fault to the read side; false applies it to the
	// write side.
	OnRead bool
	// Dur is the delay (FaultLatency) or stall length (FaultStall).
	Dur time.Duration
	// Span bounds the corrupted bytes (FaultCorrupt) or the delivered
	// prefix of a truncated write (FaultTruncate). Zero means 1 byte for
	// corruption and an empty prefix for truncation.
	Span int
}

// String renders the fault compactly for logs and test failure messages.
func (f Fault) String() string {
	dir := "write"
	if f.OnRead {
		dir = "read"
	}
	return fmt.Sprintf("%s@%s+%d(dur=%s,span=%d)", f.Kind, dir, f.After, f.Dur, f.Span)
}

// FaultConn wraps a net.Conn with a deterministic fault schedule. It is
// safe for the usual net.Conn usage: one reader goroutine and one writer
// goroutine concurrently, plus Close from any goroutine. Close (local or
// injected) interrupts in-progress stalls.
type FaultConn struct {
	net.Conn

	mu         sync.Mutex
	faults     []Fault
	readBytes  int64
	writeBytes int64
	fired      []Fault
	closeOnce  sync.Once
	closed     chan struct{}
}

// NewFaultConn wraps conn with the given schedule. Faults fire in slice
// order as their byte offsets are reached; schedules from Schedule are
// already ordered per direction.
func NewFaultConn(conn net.Conn, faults ...Fault) *FaultConn {
	return &FaultConn{Conn: conn, faults: faults, closed: make(chan struct{})}
}

// Fired returns the faults that have triggered so far, in firing order —
// the chaos suite's injection transcript.
func (c *FaultConn) Fired() []Fault {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Fault(nil), c.fired...)
}

// Close closes the wrapped connection and releases any in-progress stall.
// It is idempotent.
func (c *FaultConn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		err = c.Conn.Close()
	})
	return err
}

// next pops the first armed fault for the given direction, or nil.
func (c *FaultConn) next(onRead bool, pos int64) *Fault {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, f := range c.faults {
		if f.OnRead == onRead && pos >= f.After {
			c.faults = append(c.faults[:i], c.faults[i+1:]...)
			c.fired = append(c.fired, f)
			return &f
		}
	}
	return nil
}

// sleep waits for d or until the connection closes.
func (c *FaultConn) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.closed:
	}
}

// corrupt flips the low bit of up to span bytes of p.
func corrupt(p []byte, span int) {
	if span <= 0 {
		span = 1
	}
	for i := 0; i < len(p) && i < span; i++ {
		p[i] ^= 0x01
	}
}

// Read applies due read-side faults, then reads from the wrapped
// connection. Corruption mutates the bytes after a successful read, so the
// wrapped stream itself stays intact for the peer.
func (c *FaultConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	pos := c.readBytes
	c.mu.Unlock()
	if f := c.next(true, pos); f != nil {
		switch f.Kind {
		case FaultLatency, FaultStall:
			c.sleep(f.Dur)
		case FaultReset, FaultTruncate:
			_ = c.Close()
			return 0, ErrInjectedReset
		}
		if f.Kind == FaultCorrupt {
			n, err := c.countRead(p)
			if n > 0 {
				corrupt(p[:n], f.Span)
			}
			return n, err
		}
	}
	return c.countRead(p)
}

// countRead reads and advances the read-side byte counter.
func (c *FaultConn) countRead(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.readBytes += int64(n)
	c.mu.Unlock()
	return n, err
}

// Write applies due write-side faults, then writes to the wrapped
// connection. A truncating fault delivers Span bytes and closes the
// connection; corruption copies p so the caller's buffer is untouched.
func (c *FaultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	pos := c.writeBytes
	c.mu.Unlock()
	if f := c.next(false, pos); f != nil {
		switch f.Kind {
		case FaultLatency, FaultStall:
			c.sleep(f.Dur)
		case FaultReset:
			_ = c.Close()
			return 0, ErrInjectedReset
		case FaultTruncate:
			span := f.Span
			if span > len(p) {
				span = len(p)
			}
			n := 0
			if span > 0 {
				n, _ = c.countWrite(p[:span])
			}
			_ = c.Close()
			return n, ErrInjectedReset
		case FaultCorrupt:
			q := append([]byte(nil), p...)
			corrupt(q, f.Span)
			return c.countWrite(q)
		}
	}
	return c.countWrite(p)
}

// countWrite writes and advances the write-side byte counter.
func (c *FaultConn) countWrite(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.writeBytes += int64(n)
	c.mu.Unlock()
	return n, err
}

// splitmix64 steps a SplitMix64 generator — the package's only randomness
// source, so schedules never depend on math/rand's global state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ScheduleProfile bounds the fault mix Schedule draws from.
type ScheduleProfile struct {
	// Faults is how many faults to draw.
	Faults int
	// MaxOffset bounds the byte offsets faults trigger at.
	MaxOffset int64
	// MaxDelay bounds latency and stall durations.
	MaxDelay time.Duration
	// Kinds is the drawable fault mix; empty draws from all kinds.
	Kinds []FaultKind
}

// DefaultProfile is a mixed schedule sized for one chaos session: a
// handful of faults inside the first 64 KiB with sub-100ms delays (long
// enough to perturb, short enough that deadline tests stay fast).
func DefaultProfile() ScheduleProfile {
	return ScheduleProfile{Faults: 3, MaxOffset: 64 << 10, MaxDelay: 80 * time.Millisecond}
}

// Schedule draws a deterministic fault schedule from seed: the same seed
// and profile always produce the same faults, independent of prior calls.
func Schedule(seed uint64, p ScheduleProfile) []Fault {
	state := seed ^ 0xb10db0c5 // decorrelate small consecutive seeds
	kinds := p.Kinds
	if len(kinds) == 0 {
		kinds = []FaultKind{FaultLatency, FaultStall, FaultCorrupt, FaultTruncate, FaultReset}
	}
	if p.MaxOffset <= 0 {
		p.MaxOffset = 1
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Millisecond
	}
	out := make([]Fault, 0, p.Faults)
	for i := 0; i < p.Faults; i++ {
		f := Fault{
			Kind:   kinds[splitmix64(&state)%uint64(len(kinds))],
			After:  int64(splitmix64(&state) % uint64(p.MaxOffset)),
			OnRead: splitmix64(&state)%2 == 0,
			Dur:    time.Duration(splitmix64(&state) % uint64(p.MaxDelay)),
			Span:   int(splitmix64(&state) % 64),
		}
		out = append(out, f)
	}
	return out
}
