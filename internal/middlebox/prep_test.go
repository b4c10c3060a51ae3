package middlebox

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/obs"
	"repro/internal/ruleprep"
	"repro/internal/rules"
	"repro/internal/transport"
)

// prepFragments is the fragment count of every hand-written preparation
// leg below.
const prepFragments = 2

// newPrep returns a middlebox and a preparation run of prepFragments
// fragments for it.
func newPrep(t *testing.T) (*Middlebox, *ruleprep.Middlebox) {
	t.Helper()
	g, err := rules.NewGenerator("PrepRG")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rules.Parse("prep", `alert tcp any any -> any any (content:"attackkw"; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := New(Config{Ruleset: g.Sign(rs)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mb.Close() })
	prep, err := ruleprep.NewMiddlebox(ruleprep.Request{
		Fragments: make([]bbcrypto.Block, prepFragments),
		Tags:      make([]bbcrypto.Block, prepFragments),
	})
	if err != nil {
		t.Fatal(err)
	}
	return mb, prep
}

// runPrepAgainst runs the middlebox's side of rule preparation on one leg
// whose endpoint is hand-written: it reads SubPrepStart, writes the given
// raw bytes, then drains whatever the middlebox sends until the leg closes.
// It returns what runPrep returned, once both sides have finished.
func runPrepAgainst(mb *Middlebox, prep *ruleprep.Middlebox, client bool, raw ...[]byte) error {
	ours, theirs := net.Pipe()
	peer := make(chan struct{})
	go func() {
		defer close(peer)
		if _, _, err := transport.ReadRecord(theirs); err != nil {
			return
		}
		for _, b := range raw {
			if _, err := theirs.Write(b); err != nil {
				return
			}
		}
		_, _ = io.Copy(io.Discard, theirs)
	}()
	_, _, err := mb.runPrep(newLeg(ours), prep, obs.SpanCtx{}, client, nil)
	ours.Close()
	<-peer
	theirs.Close()
	return err
}

// prepRecord frames one preparation message.
func prepRecord(sub byte, msg []byte) []byte {
	body := append([]byte{sub}, msg...)
	return append(transport.AppendHeader(nil, transport.RecGarble, len(body)), body...)
}

// digestRecord is a client's SubDigest record for fragment index.
func digestRecord(index uint32) []byte {
	return prepRecord(transport.SubDigest, append(binary.BigEndian.AppendUint32(nil, index), make([]byte, 32)...))
}

// noGoroutineLeak fails the test if the goroutine count does not fall back
// to base once the goroutines a case started have been waited for.
func noGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 1000 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines, %d before", n, base)
	}
}

// TestPrepRefusesMalformedLeg pins DESIGN.md §10's parse-ambiguity rows 5
// and 6: a client digest message of the wrong length, or with an index out
// of range or repeated, and a leg that sends the other role's message, each
// end that leg's preparation in an error before anything is evaluated,
// leaking no goroutine.
func TestPrepRefusesMalformedLeg(t *testing.T) {
	circuitMsg := binary.BigEndian.AppendUint32(make([]byte, 4), 16) // index 0, a 16-byte blob that is not one
	circuitMsg = append(circuitMsg, make([]byte, 16+4)...)
	cases := []struct {
		name   string
		client bool
		raw    [][]byte
		want   string
	}{
		{"row 5: digest of 35 bytes", true, [][]byte{prepRecord(transport.SubDigest, make([]byte, 35))}, "digest message of 35 bytes"},
		{"row 5: digest of 37 bytes", true, [][]byte{prepRecord(transport.SubDigest, make([]byte, 37))}, "exceeds its cap"},
		{"row 5: index out of range", true, [][]byte{digestRecord(prepFragments)}, "bad fragment index"},
		{"row 5: index repeated", true, [][]byte{digestRecord(0), digestRecord(0)}, "bad fragment index"},
		{"row 6: client sends a circuit", true, [][]byte{prepRecord(transport.SubCircuit, circuitMsg)}, "expected prep message"},
		{"row 6: server sends a digest", false, [][]byte{digestRecord(0)}, "expected prep message"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mb, prep := newPrep(t)
			base := runtime.NumGoroutine()
			err := runPrepAgainst(mb, prep, tc.client, tc.raw...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("runPrep = %v, want an error containing %q", err, tc.want)
			}
			noGoroutineLeak(t, base)
		})
	}
}

// TestClientPrepRecordCap: every preparation message of either leg has a
// size known from the fragment count, so a header announcing 64 MiB, where
// a client's digest or a server's circuit message is due, ends preparation
// in a *transport.RecordCapError at that message's cap before the body is
// allocated.
func TestClientPrepRecordCap(t *testing.T) {
	for _, tc := range []struct {
		leg    string
		client bool
		sub    byte
	}{
		{"client", true, transport.SubDigest},
		{"server", false, transport.SubCircuit},
	} {
		t.Run(tc.leg, func(t *testing.T) {
			mb, prep := newPrep(t)
			hdr := transport.AppendHeader(nil, transport.RecGarble, 64<<20)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := runPrepAgainst(mb, prep, tc.client, hdr)
			runtime.ReadMemStats(&after)
			var capErr *transport.RecordCapError
			if !errors.As(err, &capErr) || capErr.Cap != transport.PrepCap(tc.sub, prepFragments) {
				t.Fatalf("runPrep = %v, want a *transport.RecordCapError at message %d's cap", err, tc.sub)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("%d bytes allocated reading a 64 MiB header, want < 1 MiB", alloc)
			}
		})
	}
}
