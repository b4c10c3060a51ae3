package middlebox

import (
	"bufio"
	"errors"
	"maps"
	"net"
	"sync"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/ruleprep"
	"repro/internal/rules"
	"repro/internal/tokenize"
	"repro/internal/transport"
)

// keptFixture is a live middlebox with a two-rule set and the material its
// endpoints prepare with: every dial uses the same session keys, so every
// dial's token keys must come out equal.
type keptFixture struct {
	mb            *Middlebox
	rs            *rules.Ruleset
	tagKey, k, kr bbcrypto.Block
}

func newKeptFixture(t *testing.T) *keptFixture {
	t.Helper()
	g, err := rules.NewGenerator("KeptRG")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rules.Parse("kept", `alert tcp any any -> any any (content:"attackkw"; sid:1;)
alert tcp any any -> any any (content:"beaconid"; sid:2;)`)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := New(Config{Ruleset: g.Sign(rs)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mb.Close() })
	return &keptFixture{mb: mb, rs: rs, tagKey: g.TagKey(), k: bbcrypto.RandomBlock(), kr: bbcrypto.RandomBlock()}
}

// dial runs the middlebox's preparation step in mode, as Interpose does
// after the hellos, against an honest client and server over net.Pipe, and
// returns the connection's token keys. Every pipe's remote address is
// "pipe", so every dial goes to one upstream.
func (f *keptFixture) dial(mode tokenize.Mode) (detect.TokenKeys, error) {
	cOurs, cTheirs := net.Pipe()
	sOurs, sTheirs := net.Pipe()
	conns := []net.Conn{cOurs, cTheirs, sOurs, sTheirs}
	hangGuard(conns...)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	errs := make(chan error, 2)
	for i, c := range []net.Conn{cTheirs, sTheirs} {
		go func() {
			ep := ruleprep.NewEndpoint(f.k, f.tagKey, f.kr)
			errs <- ep.Serve(transport.PrepPort{R: bufio.NewReader(c), W: c}, i == 0)
		}()
	}
	keys, err := f.mb.prepare(1, newLeg(cOurs), newLeg(sOurs), mode, nil, obs.SpanCtx{})
	if err != nil {
		return nil, err
	}
	return keys, errors.Join(<-errs, <-errs)
}

// outcomes reads the middlebox's blindbox_mb_ot_resume_total.
func (f *keptFixture) outcomes() map[string]uint64 { return f.mb.met.resume.Values() }

// TestKeptBaseAcrossDials: sequential dials through one middlebox to one
// server. The first runs the base phase and the rest resume it, and every
// dial's token keys equal the cold dial's and core.DirectTokenKeys.
func TestKeptBaseAcrossDials(t *testing.T) {
	f := newKeptFixture(t)
	direct := core.DirectTokenKeys(f.k, f.rs, tokenize.Delimiter)
	const dials = 4
	var cold detect.TokenKeys
	for d := 0; d < dials; d++ {
		keys, err := f.dial(tokenize.Delimiter)
		if err != nil {
			t.Fatalf("dial %d: %v", d, err)
		}
		if d == 0 {
			cold = keys
		}
		if !maps.Equal(keys, cold) || !maps.Equal(keys, direct) {
			t.Fatalf("dial %d: token keys differ from the cold dial's or DirectTokenKeys", d)
		}
	}
	if got := f.outcomes(); got[ruleprep.ResumeMiss] != 1 || got[ruleprep.ResumeHit] != dials-1 || got[ruleprep.ResumeRefused] != 0 {
		t.Fatalf("base phases %v, want 1 miss and %d hits", got, dials-1)
	}
}

// TestConcurrentDialsShareKeptBase: dials through one middlebox to one
// server run concurrently (go test -race checks them). None waits for
// another's base phase, each that resumes takes a position of its own, and
// every dial ends with the right keys.
func TestConcurrentDialsShareKeptBase(t *testing.T) {
	f := newKeptFixture(t)
	direct := core.DirectTokenKeys(f.k, f.rs, tokenize.Delimiter)
	const rounds, width = 2, 3
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		errs := make([]error, width)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				keys, err := f.dial(tokenize.Delimiter)
				if err == nil && !maps.Equal(keys, direct) {
					err = errors.New("token keys differ from DirectTokenKeys")
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	got := f.outcomes()
	if n := got[ruleprep.ResumeMiss] + got[ruleprep.ResumeHit] + got[ruleprep.ResumeRefused]; n != rounds*width || got[ruleprep.ResumeRefused] != 0 {
		t.Fatalf("base phases %v, want %d dials and no refusal", got, rounds*width)
	}
	if got[ruleprep.ResumeHit] < width {
		t.Fatalf("base phases %v: the second round should resume", got)
	}
}

// TestKeptBaseSharedAcrossModes: the base phase belongs to the
// middlebox-server pair, not to a request, so dials in both tokenization
// modes to one upstream share it. The first dial runs it and the rest,
// in either mode, resume it, each with its own mode's token keys.
func TestKeptBaseSharedAcrossModes(t *testing.T) {
	f := newKeptFixture(t)
	modes := []tokenize.Mode{tokenize.Window, tokenize.Delimiter, tokenize.Window, tokenize.Delimiter}
	for d, mode := range modes {
		keys, err := f.dial(mode)
		if err != nil {
			t.Fatalf("dial %d (%v): %v", d, mode, err)
		}
		if !maps.Equal(keys, core.DirectTokenKeys(f.k, f.rs, mode)) {
			t.Fatalf("dial %d (%v): token keys differ from DirectTokenKeys", d, mode)
		}
	}
	if got := f.outcomes(); got[ruleprep.ResumeMiss] != 1 || got[ruleprep.ResumeHit] != uint64(len(modes)-1) || got[ruleprep.ResumeRefused] != 0 {
		t.Fatalf("base phases %v, want 1 miss and %d hits", got, len(modes)-1)
	}
}
