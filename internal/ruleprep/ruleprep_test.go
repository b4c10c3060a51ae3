package ruleprep

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/circuit"
	"repro/internal/dpienc"
	"repro/internal/garble"
	"repro/internal/obs"
	"repro/internal/ot"
	"repro/internal/rules"
	"repro/internal/tokenize"
)

func fragBlock(s string) bbcrypto.Block {
	var f [tokenize.TokenSize]byte
	copy(f[:], s)
	return rules.FragmentBlock(f)
}

// setup returns two endpoints sharing fresh keys and a middlebox asking for
// frags, each tagged by RG except those at the indices unauthorized.
func setup(t *testing.T, frags []string, unauthorized ...int) (*Endpoint, *Endpoint, *Middlebox, bbcrypto.Block, bbcrypto.Block) {
	t.Helper()
	k := bbcrypto.RandomBlock()
	kRG := bbcrypto.RandomBlock()
	krand := bbcrypto.RandomBlock()
	req := Request{}
	for _, f := range frags {
		blk := fragBlock(f)
		req.Fragments = append(req.Fragments, blk)
		req.Tags = append(req.Tags, bbcrypto.MAC(kRG, blk))
	}
	for _, i := range unauthorized {
		req.Tags[i][0] ^= 1
	}
	mb, err := NewMiddlebox(req)
	if err != nil {
		t.Fatal(err)
	}
	return NewEndpoint(k, kRG, krand), NewEndpoint(k, kRG, krand), mb, k, kRG
}

func TestRunLocalProducesCorrectTokenKeys(t *testing.T) {
	frags := []string{"maliciou", "iciously"}
	epS, epR, mb, k, _ := setup(t, frags)
	keys, wireBytes, err := RunLocal(epS, epR, mb)
	if err != nil {
		t.Fatal(err)
	}
	// One leg's circuit messages and the other's digest messages.
	job, err := epR.Garble(0)
	if err != nil {
		t.Fatal(err)
	}
	circuitMsg := 8 + job.G.Size() + 4 + endpointWires*bbcrypto.BlockSize
	// The middlebox caps the server's SubCircuit records at CircuitMsgLen:
	// F's 11 775 AND gates make 376 953 bytes of garbled blob.
	if got := len(job.AppendCircuitMsg(nil)); got != circuitMsg || got != CircuitMsgLen() || got != 422_021 {
		t.Fatalf("circuit message of %d bytes, want %d = CircuitMsgLen() %d = 422 021", got, circuitMsg, CircuitMsgLen())
	}
	// The client's digest message: index, digest, two 16-byte label
	// commitments for each of 256 OT wires.
	if DigestMsgLen != 8_228 {
		t.Fatalf("DigestMsgLen = %d, want 8 228", DigestMsgLen)
	}
	if want := len(frags) * (circuitMsg + DigestMsgLen); wireBytes != want {
		t.Fatalf("RunLocal counts %d wire bytes, want %d", wireBytes, want)
	}
	for i, f := range frags {
		if keys[i] == nil {
			t.Fatalf("fragment %q: no key", f)
		}
		var tok [tokenize.TokenSize]byte
		copy(tok[:], f)
		want := dpienc.ComputeTokenKey(k, tok)
		if *keys[i] != want {
			t.Fatalf("fragment %q: got %x want %x", f, *keys[i], want)
		}
	}
}

func TestUnauthorizedFragmentRejected(t *testing.T) {
	// MB tries to get AES_k for a fragment RG never tagged: the circuit
	// must output ⊥.
	epS, epR, mb, _, _ := setup(t, []string{"autherok"}, 0)
	keys, _, err := RunLocal(epS, epR, mb)
	if err != nil {
		t.Fatal(err)
	}
	if keys[0] != nil {
		t.Fatal("unauthorized fragment produced a token key")
	}
}

// clientDigest is what an honest client sends the middlebox for job: its
// index and the SHA-256 of its circuit message.
func clientDigest(job *FragmentJob) *FragmentJob {
	return &FragmentJob{Index: job.Index, Digest: sha256.Sum256(job.AppendCircuitMsg(nil))}
}

// serverJob is the middlebox's parse of the circuit message a server sends
// for job.
func serverJob(t *testing.T, job *FragmentJob) *FragmentJob {
	t.Helper()
	got, err := ParseCircuitMsg(job.AppendCircuitMsg(nil))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestMismatchedEndpointsDetected(t *testing.T) {
	// A malicious endpoint garbling with different randomness (or a
	// different key) is caught by the §3.3 equality check.
	k := bbcrypto.RandomBlock()
	kRG := bbcrypto.RandomBlock()
	honest := NewEndpoint(k, kRG, bbcrypto.Block{1})
	cheat := NewEndpoint(k, kRG, bbcrypto.Block{2}) // wrong randomness
	req := Request{
		Fragments: []bbcrypto.Block{fragBlock("somefrag")},
		Tags:      []bbcrypto.Block{bbcrypto.MAC(kRG, fragBlock("somefrag"))},
	}
	mb, err := NewMiddlebox(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range [][2]*Endpoint{{honest, cheat}, {cheat, honest}} {
		if _, _, err := RunLocal(eps[0], eps[1], mb); err == nil {
			t.Fatal("mismatched garbling not detected")
		}
	}

	// The middlebox holds the honest client's digest and checks the
	// server's circuit message against it. The honest server passes; a
	// server whose message differs in any byte does not.
	jobH, err := honest.Garble(0)
	if err != nil {
		t.Fatal(err)
	}
	digest := clientDigest(jobH)
	if err := mb.Verify(digest, serverJob(t, jobH)); err != nil {
		t.Fatalf("honest server rejected: %v", err)
	}
	reject := func(what string, job *FragmentJob) {
		t.Helper()
		if err := mb.Verify(digest, serverJob(t, job)); err == nil {
			t.Fatalf("server job with %s accepted", what)
		}
		if _, err := mb.VerifyAndEvaluate(0, digest, serverJob(t, job), nil, nil); err == nil {
			t.Fatalf("server job with %s evaluated", what)
		}
	}
	table := serverJob(t, jobH) // a deep copy of the honest job
	table.G.Tables[100][7] ^= 1
	reject("one table byte flipped", table)
	decode := serverJob(t, jobH)
	decode.G.Decode[3].Val = !decode.G.Decode[3].Val
	reject("one decode bit flipped", decode)
	label := serverJob(t, jobH)
	label.EndpointLabels[5][0] ^= 1
	reject("one endpoint label flipped", label)
	jobC, err := cheat.Garble(0)
	if err != nil {
		t.Fatal(err)
	}
	reject("another krand", jobC)

	// A cheating endpoint substituting its own session key is also caught:
	// the messages are equal only if k, kRG and krand all agree.
	jobC, err = NewEndpoint(bbcrypto.RandomBlock(), kRG, bbcrypto.Block{1}).Garble(0)
	if err != nil {
		t.Fatal(err)
	}
	reject("another k (its labels differ)", jobC)

	// The key schedules run outside the circuit, so an endpoint could feed
	// round keys that are not the expansion of any key. One wrong bit on one
	// round-key wire is one different label, which Verify catches.
	for _, wire := range []int{0, circuit.RoundKeyBits - 1, circuit.RoundKeyBits + 700} {
		cheat3 := NewEndpoint(k, kRG, bbcrypto.Block{1})
		cheat3.keyBits[wire] = !cheat3.keyBits[wire]
		jobC, err := cheat3.Garble(0)
		if err != nil {
			t.Fatal(err)
		}
		reject(fmt.Sprintf("round-key wire %d flipped", wire), jobC)
	}

	// A job that carries no digest is never accepted, even against another.
	if err := mb.Verify(jobH, jobH); err == nil {
		t.Fatal("jobs without digests accepted")
	}
}

// TestDigestMsgKeepsChosenCommitments: a client's digest message carries
// its circuit message's SHA-256 and both label commitments of every OT
// wire; the middlebox's parse keeps the digest and, per wire, the one
// 16-byte commitment at its choice bit, which the label OT delivers to it
// passes and the other label fails.
func TestDigestMsgKeepsChosenCommitments(t *testing.T) {
	epS, _, mb, _, _ := setup(t, []string{"fragmen1", "fragmen2"})
	job, err := epS.Garble(1)
	if err != nil {
		t.Fatal(err)
	}
	job.Digest = sha256.Sum256(job.AppendCircuitMsg(nil))
	msg := job.AppendDigestMsg(nil)
	if len(msg) != DigestMsgLen {
		t.Fatalf("digest message of %d bytes, want %d", len(msg), DigestMsgLen)
	}
	choices := mb.Choices(1)
	got, err := ParseDigestMsg(msg, choices)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != 1 || got.Digest != job.Digest || got.G != nil || len(got.Commits) != OTWires {
		t.Fatalf("parsed index %d, %d commitments, digest equal %v", got.Index, len(got.Commits), got.Digest == job.Digest)
	}
	chosen := make([]bbcrypto.Block, OTWires)
	other := make([]bbcrypto.Block, OTWires)
	for w, c := range choices {
		chosen[w], other[w] = job.OTPairs()[w][bit(c)], job.OTPairs()[w][1-bit(c)]
	}
	if err := checkCommitments(1, got.Commits, chosen, choices); err != nil {
		t.Fatalf("chosen labels fail their commitments: %v", err)
	}
	for w := range other {
		labels := slices.Clone(chosen)
		labels[w] = other[w]
		if err := checkCommitments(1, got.Commits, labels, choices); !errors.Is(err, ErrLabelCommitment) {
			t.Fatalf("wire %d's other label: %v, want ErrLabelCommitment", w, err)
		}
	}
	// A commitment binds its fragment index: fragment 0 does not accept it.
	if err := checkCommitments(0, got.Commits, chosen, choices); !errors.Is(err, ErrLabelCommitment) {
		t.Fatalf("commitments checked under another index: %v, want ErrLabelCommitment", err)
	}
	for _, n := range []int{DigestMsgLen - 1, DigestMsgLen + 1} {
		if _, err := ParseDigestMsg(make([]byte, n), choices); err == nil {
			t.Fatalf("digest message of %d bytes accepted", n)
		}
	}
}

// TestEndpointFeedsHonestExpansion: the bits an endpoint feeds F are the
// FIPS-197 round keys of k, then of kRG.
func TestEndpointFeedsHonestExpansion(t *testing.T) {
	k, kRG := bbcrypto.RandomBlock(), bbcrypto.RandomBlock()
	ep := NewEndpoint(k, kRG, bbcrypto.Block{1})
	if len(ep.keyBits) != endpointWires {
		t.Fatalf("endpoint feeds %d bits, want %d", len(ep.keyBits), endpointWires)
	}
	got := circuit.BitsToBytes(ep.keyBits)
	rk, rkRG := circuit.ExpandKey128(k), circuit.ExpandKey128(kRG)
	if string(got[:len(rk)]) != string(rk[:]) || string(got[len(rk):]) != string(rkRG[:]) {
		t.Fatal("endpoint input bits are not the round keys of k then kRG")
	}
	if string(got[:16]) != string(k[:]) {
		t.Fatal("round key 0 is not the key itself")
	}
}

func TestMiddleboxNeverLearnsK(t *testing.T) {
	// Structural check: the data MB receives (garbled circuit, endpoint
	// labels, OT-chosen labels) must not contain k in the clear. We verify
	// the chosen labels differ from the raw key bits' labels' XOR pattern —
	// i.e. k cannot be read off the transcript. (True cryptographic
	// indistinguishability is the garbling scheme's guarantee; here we
	// assert the obvious leaks are absent.)
	epS, _, mb, k, _ := setup(t, []string{"fragment"})
	job, err := epS.Garble(0)
	if err != nil {
		t.Fatal(err)
	}
	blob := job.G.Marshal()
	for i := 0; i+len(k) <= len(blob); i++ {
		match := true
		for j := range k {
			if blob[i+j] != k[j] {
				match = false
				break
			}
		}
		if match {
			t.Fatal("raw session key found inside garbled circuit bytes")
		}
	}
	_ = mb
}

func TestRequestValidation(t *testing.T) {
	_, err := NewMiddlebox(Request{Fragments: make([]bbcrypto.Block, 2), Tags: make([]bbcrypto.Block, 1)})
	if err == nil {
		t.Fatal("misaligned request accepted")
	}
}

func TestEvaluateInputValidation(t *testing.T) {
	epS, _, mb, _, _ := setup(t, []string{"fragment"})
	job, err := epS.Garble(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Evaluate(0, job, make([]bbcrypto.Block, 3)); err == nil {
		t.Fatal("short OT labels accepted")
	}
	bad := *job
	bad.EndpointLabels = bad.EndpointLabels[:10]
	choices := mb.Choices(0)
	got, err := ot.ExtTransfer(job.OTPairs(), choices)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Evaluate(0, &bad, got); err == nil {
		t.Fatal("short endpoint labels accepted")
	}
}

// spanCounter is a trace sink that counts prep.garble spans: Endpoint.Garble
// emits one as soon as a circuit exists, which makes it the tests' view of
// how many garblings have run.
type spanCounter struct{ garbled atomic.Int64 }

func (s *spanCounter) Emit(sp obs.Span) {
	if sp.Name == obs.SpanPrepGarble {
		s.garbled.Add(1)
	}
}

func TestGarbleEachRefusesOversizedRun(t *testing.T) {
	ep := NewEndpoint(bbcrypto.Block{1}, bbcrypto.Block{2}, bbcrypto.Block{3})
	var spans spanCounter
	ep.SetTrace(obs.StreamFlow(&spans, 1, obs.PartyClient, obs.SpanCtx{}), obs.NewSpanCtx())
	for _, n := range []int{MaxFragments + 1, 1 << 31, -1} {
		err := ep.GarbleEach(n, func(*FragmentJob) error {
			t.Error("emit called for a refused run")
			return nil
		})
		if !errors.Is(err, ErrTooManyFragments) {
			t.Fatalf("GarbleEach(%d) = %v, want ErrTooManyFragments", n, err)
		}
	}
	if got := spans.garbled.Load(); got != 0 {
		t.Fatalf("%d circuits garbled for refused runs", got)
	}
}

// TestGarbleEachIsOrderedAndBounded: jobs reach emit in index order, equal to
// what Garble(i) produces, and while emit holds a job at most GOMAXPROCS
// further circuits exist.
func TestGarbleEachIsOrderedAndBounded(t *testing.T) {
	ep := NewEndpoint(bbcrypto.Block{1}, bbcrypto.Block{2}, bbcrypto.Block{3})
	var spans spanCounter
	ep.SetTrace(obs.StreamFlow(&spans, 1, obs.PartyClient, obs.SpanCtx{}), obs.NewSpanCtx())
	const n = 12
	bound := int64(runtime.GOMAXPROCS(0) + 1)
	emitted := 0
	err := ep.GarbleEach(n, func(job *FragmentJob) error {
		if job.Index != emitted {
			t.Fatalf("job %d emitted at position %d", job.Index, emitted)
		}
		// Everything garbled so far is either already emitted, this job,
		// or running ahead.
		if live := spans.garbled.Load() - int64(emitted); live > bound {
			t.Fatalf("%d circuits alive at emit %d, want at most %d", live, emitted, bound)
		}
		emitted++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != n || spans.garbled.Load() != n {
		t.Fatalf("emitted %d, garbled %d, want %d", emitted, spans.garbled.Load(), n)
	}
	ep.SetTrace(nil, obs.SpanCtx{})
	want, err := ep.Garble(n - 1)
	if err != nil {
		t.Fatal(err)
	}
	same := false
	err = ep.GarbleEach(n, func(job *FragmentJob) error {
		same = job.Index != n-1 || garble.Equal(want.G, job.G)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatal("GarbleEach's last job differs from Garble(n-1)")
	}
}

// TestGarbleEachMatchesGarble: the garblers' memory serves fragment after
// fragment, so nothing one fragment leaves in it may show in the next. At
// n = 1, GOMAXPROCS and 3·GOMAXPROCS + 1, every emitted job has the circuit
// message, endpoint labels and OT pairs of a fresh Garble(i).
func TestGarbleEachMatchesGarble(t *testing.T) {
	ep := NewEndpoint(bbcrypto.Block{4}, bbcrypto.Block{5}, bbcrypto.Block{6})
	procs := runtime.GOMAXPROCS(0)
	want := make([]*FragmentJob, 3*procs+1)
	digests := make([][sha256.Size]byte, len(want))
	for i := range want {
		job, err := ep.Garble(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i], digests[i] = job, sha256.Sum256(job.AppendCircuitMsg(nil))
	}
	for _, n := range []int{1, procs, 3*procs + 1} {
		emitted := 0
		err := ep.GarbleEach(n, func(job *FragmentJob) error {
			i := job.Index
			switch {
			case i != emitted:
				return fmt.Errorf("job %d emitted at position %d", i, emitted)
			case sha256.Sum256(job.AppendCircuitMsg(nil)) != digests[i]:
				return fmt.Errorf("job %d: circuit message differs from Garble(%d)'s", i, i)
			case !slices.Equal(job.EndpointLabels, want[i].EndpointLabels):
				return fmt.Errorf("job %d: endpoint labels differ from Garble(%d)'s", i, i)
			case !slices.Equal(job.OTPairs(), want[i].OTPairs()):
				return fmt.Errorf("job %d: OT pairs differ from Garble(%d)'s", i, i)
			}
			emitted++
			return nil
		})
		if err != nil {
			t.Fatalf("n = %d: %v", n, err)
		}
		if emitted != n {
			t.Fatalf("n = %d: %d jobs emitted", n, emitted)
		}
	}
}

// aesAllocFree reports whether keying AES allocates nothing in this build:
// the amd64 kernel does not, crypto/aes behind purego does.
func aesAllocFree() bool {
	key := bbcrypto.Block{1}
	return testing.AllocsPerRun(10, func() { new(bbcrypto.Schedule).Expand(&key) }) == 0
}

// TestGarbleEachAllocsDoNotGrow: GarbleEach's garblers serve every
// fragment, so garbling 2n fragments allocates fewer than n objects more
// than garbling n.
func TestGarbleEachAllocsDoNotGrow(t *testing.T) {
	if raceEnabled || !aesAllocFree() {
		t.Skip("the race detector or crypto/aes behind the AES kernel allocates on its own")
	}
	ep := NewEndpoint(bbcrypto.Block{1}, bbcrypto.Block{2}, bbcrypto.Block{3})
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := ep.GarbleEach(n, func(*FragmentJob) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 8
	if one, two := allocs(n), allocs(2*n); two-one >= n {
		t.Fatalf("GarbleEach allocates %.0f objects for %d fragments and %.0f for %d, want fewer than %d more", one, n, two, 2*n, n)
	}
}

// TestRunEvaluatesInOneScratch: a Run's evaluations share its scratch, so
// once it is warm, six verified evaluations allocate only the two key
// slices, no label array, and every key is right.
func TestRunEvaluatesInOneScratch(t *testing.T) {
	if raceEnabled || !aesAllocFree() {
		t.Skip("the race detector or crypto/aes behind the AES kernel allocates on its own")
	}
	frags := []string{"fragmen1", "fragmen2", "fragmen3", "fragmen4", "fragmen5", "fragmen6"}
	epS, _, mb, k, _ := setup(t, frags)
	var client, server []*FragmentJob
	var labels []bbcrypto.Block
	for i := range frags {
		job, err := epS.Garble(i)
		if err != nil {
			t.Fatal(err)
		}
		job.Digest = sha256.Sum256(job.AppendCircuitMsg(nil))
		c, err := ParseDigestMsg(job.AppendDigestMsg(nil), mb.Choices(i))
		if err != nil {
			t.Fatal(err)
		}
		client, server = append(client, c), append(server, serverJob(t, job))
		for w, b := range mb.Choices(i) {
			labels = append(labels, job.OTPairs()[w][bit(b)])
		}
	}
	r := &run{Middlebox: mb}
	var keys []*dpienc.TokenKey
	evaluate := func() {
		var err error
		if keys, err = r.evaluate(client, server, labels, time.Now(), func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	evaluate()
	if allocs := testing.AllocsPerRun(5, evaluate); allocs > 2 {
		t.Fatalf("six evaluations in a warm scratch allocate %.0f objects, want the 2 key slices", allocs)
	}
	for i, f := range frags {
		var tok [tokenize.TokenSize]byte
		copy(tok[:], f)
		if keys[i] == nil || *keys[i] != dpienc.ComputeTokenKey(k, tok) {
			t.Fatalf("fragment %q: wrong key", f)
		}
	}
}

func TestGarbleEachStopsAtEmitError(t *testing.T) {
	ep := NewEndpoint(bbcrypto.Block{1}, bbcrypto.Block{2}, bbcrypto.Block{3})
	var spans spanCounter
	ep.SetTrace(obs.StreamFlow(&spans, 1, obs.PartyClient, obs.SpanCtx{}), obs.NewSpanCtx())
	boom := errors.New("peer went away")
	calls := 0
	err := ep.GarbleEach(64, func(*FragmentJob) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("GarbleEach = %v, want the emit error", err)
	}
	if calls != 2 {
		t.Fatalf("emit called %d times after failing on the 2nd", calls)
	}
	// Two emitted, and no more than the look-ahead garbled beyond them.
	if got, most := spans.garbled.Load(), int64(2+runtime.GOMAXPROCS(0)); got > most {
		t.Fatalf("%d circuits garbled for a run that failed at the 2nd, want at most %d", got, most)
	}
}

// garbleWorkers counts the goroutines running a GarbleEach worker.
func garbleWorkers() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("ruleprep.(*Endpoint).GarbleEach.func"))
}

// TestGarbleEachLeavesNoGoroutine: after a run that emit stops at its
// first job, and after one that completes, every worker has exited.
func TestGarbleEachLeavesNoGoroutine(t *testing.T) {
	ep := NewEndpoint(bbcrypto.Block{1}, bbcrypto.Block{2}, bbcrypto.Block{3})
	boom := errors.New("peer went away")
	for _, stopAt := range []int{0, -1} {
		running := 0
		err := ep.GarbleEach(3*runtime.GOMAXPROCS(0)+1, func(job *FragmentJob) error {
			running = max(running, garbleWorkers())
			if job.Index == stopAt {
				return boom
			}
			return nil
		})
		if stopAt >= 0 && !errors.Is(err, boom) || stopAt < 0 && err != nil {
			t.Fatalf("GarbleEach stopping at %d = %v", stopAt, err)
		}
		if running == 0 {
			t.Fatal("no worker seen while GarbleEach ran")
		}
		// GarbleEach has waited for its workers; one may still be between
		// its deferred Done and its exit.
		left := garbleWorkers()
		for i := 0; i < 1000 && left > 0; i++ {
			runtime.Gosched()
			left = garbleWorkers()
		}
		if left > 0 {
			t.Fatalf("%d workers left after GarbleEach stopping at %d returned", left, stopAt)
		}
	}
}

func TestDeterministicAcrossEndpoints(t *testing.T) {
	// Both endpoints' jobs must be byte-identical for the same index and
	// differ across indices (fresh circuit per rule, §3.3).
	epS, epR, _, _, _ := setup(t, []string{"fragmen1", "fragmen2"})
	s0, err := epS.Garble(0)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := epR.Garble(0)
	if err != nil {
		t.Fatal(err)
	}
	if !garble.Equal(s0.G, r0.G) {
		t.Fatal("same index produced different circuits across endpoints")
	}
	s1, err := epS.Garble(1)
	if err != nil {
		t.Fatal(err)
	}
	if garble.Equal(s0.G, s1.G) {
		t.Fatal("different indices must produce fresh garbled circuits")
	}
}
