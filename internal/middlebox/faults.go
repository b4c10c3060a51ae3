// Degradation policy and deadlines for the middlebox — the middlebox half
// of the fault-tolerance layer (DESIGN.md §9).
//
// The paper's prototype assumes the detection element never stalls and
// both endpoints stay live. In operation either can fail, and the
// middlebox must then choose between the two classic IDS stances: fail
// closed (sever the connection; no traffic escapes inspection, matching
// the paper's threat model where the middlebox is trusted to enforce
// policy) or fail open (keep forwarding unscanned, preserving
// availability at the cost of coverage). The policy applies at the
// forwarding path, where the detection barrier is the only step that can
// stall on an unhealthy detection element.

package middlebox

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"repro/internal/transport"
)

// Policy selects what the middlebox does with traffic when detection
// becomes unavailable (a detection barrier exceeding Timeouts.Barrier).
type Policy int

// The degradation policies. The zero value is FailClosed — the paper's
// stance (§2.2: the middlebox enforces inspection), and the safe default.
const (
	// FailClosed severs a connection whose traffic can no longer be
	// scanned. No payload byte is ever forwarded without detection.
	FailClosed Policy = iota
	// FailOpen forwards traffic unscanned when detection is unavailable,
	// counting every unscanned byte (Stats.UnscannedBytes) and logging the
	// degradation. Availability over coverage.
	FailOpen
)

// String names the policy for flags, logs and experiment output.
func (p Policy) String() string {
	switch p {
	case FailClosed:
		return "fail-closed"
	case FailOpen:
		return "fail-open"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses a policy name as accepted by the bbmb -policy flag
// ("fail-closed" or "fail-open", case-insensitive).
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "fail-closed", "failclosed", "closed":
		return FailClosed, nil
	case "fail-open", "failopen", "open":
		return FailOpen, nil
	}
	return FailClosed, fmt.Errorf("middlebox: unknown policy %q (want fail-closed or fail-open)", s)
}

// NoTimeout disables one Timeouts knob explicitly, mirroring
// transport.NoTimeout (zero knobs select their defaults instead).
const NoTimeout = transport.NoTimeout

// Timeouts bounds the middlebox's blocking steps. Zero fields select the
// documented defaults; NoTimeout disables that knob. Like
// transport.Timeouts it is a plain value, normalized once per middlebox.
type Timeouts struct {
	// Handshake bounds the hello interposition (client hello in, server
	// hello back). Default 10 s.
	Handshake time.Duration
	// Prep bounds the rule-preparation protocol on both legs — the
	// garbled-circuit transfer, the OT rounds, verification and the Done
	// messages, the longest setup step. It is not retried (DESIGN.md §9).
	// Default 60 s.
	Prep time.Duration
	// Idle bounds each blocking record read during forwarding. Default
	// NoTimeout: proxied connections legitimately idle between requests.
	Idle time.Duration
	// Write bounds each record write during forwarding. Default 1 m.
	Write time.Duration
	// Barrier bounds the detection barrier — the wait for queued token
	// batches to be scanned before a data or close record may be
	// forwarded. Exceeding it triggers the degradation Policy. Default 30 s.
	Barrier time.Duration
}

// DefaultTimeouts returns the defaults a zero Timeouts resolves to.
func DefaultTimeouts() Timeouts {
	return Timeouts{
		Handshake: 10 * time.Second,
		Prep:      60 * time.Second,
		Idle:      NoTimeout,
		Write:     time.Minute,
		Barrier:   30 * time.Second,
	}
}

// withDefaults resolves zero knobs to their defaults.
func (t Timeouts) withDefaults() Timeouts {
	d := DefaultTimeouts()
	if t.Handshake == 0 {
		t.Handshake = d.Handshake
	}
	if t.Prep == 0 {
		t.Prep = d.Prep
	}
	if t.Idle == 0 {
		t.Idle = d.Idle
	}
	if t.Write == 0 {
		t.Write = d.Write
	}
	if t.Barrier == 0 {
		t.Barrier = d.Barrier
	}
	return t
}

// deadlineFor turns a resolved knob into an absolute deadline, or the
// zero time (no deadline) when the knob is disabled.
func deadlineFor(d time.Duration) time.Time {
	if d > 0 {
		return time.Now().Add(d)
	}
	return time.Time{}
}

// stepTimeout counts and logs a deadline expiry at the named step, then
// returns err wrapped with the step. Non-timeout errors pass through so
// io.EOF and protocol violations keep their identity.
func (mb *Middlebox) stepTimeout(id uint64, step string, err error) error {
	if err == nil || !transport.IsTimeout(err) {
		return err
	}
	mb.met.timeout(step)
	mb.log.Warn("step deadline exceeded", "conn", id, "step", step)
	return fmt.Errorf("middlebox: %s deadline exceeded: %w", step, err)
}

// setDeadline applies an absolute deadline to both legs, ignoring
// transports that do not support deadlines (none of ours; net.Pipe does).
func setDeadline(t time.Time, conns ...net.Conn) {
	for _, c := range conns {
		_ = c.SetDeadline(t)
	}
}

// errString renders a connection's terminal error for the flight recorder:
// "" for nil and io.EOF (ordinary teardown), the message otherwise.
func errString(err error) string {
	if err == nil || errors.Is(err, io.EOF) {
		return ""
	}
	return err.Error()
}
