package detect

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/dpienc"
	"repro/internal/tokenize"
)

// scanCorpusKeywords are embedded into randomized traffic so the
// differential runs exercise real matches (single- and multi-fragment,
// multi-keyword rules) and not just misses.
var scanCorpusKeywords = []string{
	"attack01", "exfil-marker-long", "shorty", "evil.dll", "x-hdr: 1",
}

// synthScanTraffic builds one seeded traffic stream with keywords sprinkled
// at random positions.
func synthScanTraffic(rng *rand.Rand, n int) []byte {
	var buf bytes.Buffer
	words := []string{"the", "quick", "request", "body", "with", "plain", "words", "and", "paths/like/this"}
	for buf.Len() < n {
		if rng.Intn(4) == 0 {
			buf.WriteString(scanCorpusKeywords[rng.Intn(len(scanCorpusKeywords))])
		} else {
			buf.WriteString(words[rng.Intn(len(words))])
		}
		buf.WriteByte(" ,;=/"[rng.Intn(5)])
	}
	return buf.Bytes()
}

func eventsEqual(a, b Event) bool {
	return a.Kind == b.Kind && a.Rule == b.Rule && a.KeywordIndex == b.KeywordIndex &&
		a.Offset == b.Offset && a.SSLKey == b.SSLKey && a.HasSSLKey == b.HasSSLKey
}

// TestScanBatchMatchesProcessToken is the batch/sequential differential
// property of the issue: for 1k randomized (seeded) token streams,
// ScanBatch over ANY batch-size partition of the stream yields the same
// events, in the same stream-offset order, as per-token ProcessToken.
func TestScanBatchMatchesProcessToken(t *testing.T) {
	rs := mustParse(t,
		`alert tcp any any -> any any (content:"attack01"; sid:1;)`,
		`alert tcp any any -> any any (content:"exfil-marker-long"; sid:2;)`,
		`alert tcp any any -> any any (content:"shorty"; sid:3;)`,
		`alert tcp any any -> any any (content:"evil.dll"; content:"shorty"; sid:4;)`,
		`alert tcp any any -> any any (content:"x-hdr: 1"; offset:0; depth:400; sid:5;)`,
	)
	k := bbcrypto.DeriveBlock([]byte("scanbatch"), "k")
	kSSL := bbcrypto.DeriveBlock([]byte("scanbatch"), "kssl")

	iterations := 1000
	if testing.Short() {
		iterations = 100
	}
	sawEvents := 0
	for iter := 0; iter < iterations; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		proto := dpienc.Protocol(1 + iter%3)
		mode := tokenize.Mode(iter % 2)
		keys := keysFor(k, rs, mode)
		traffic := synthScanTraffic(rng, 100+rng.Intn(300))

		sender := dpienc.NewSender(k, kSSL, proto, uint64(iter))
		ets := sender.EncryptTokensInto(nil, tokenize.TokenizeAll(mode, traffic))

		seqEng := NewEngine(rs, keys, Config{Mode: mode, Protocol: proto, Salt0: uint64(iter)})
		var want []Event
		for i := range ets {
			want = append(want, seqEng.ProcessToken(ets[i])...)
		}

		batchEng := NewEngine(rs, keys, Config{Mode: mode, Protocol: proto, Salt0: uint64(iter)})
		var got, scratch []Event
		for off := 0; off < len(ets); {
			n := 1 + rng.Intn(len(ets)-off)
			scratch = batchEng.ScanBatch(ets[off:off+n], scratch[:0])
			got = append(got, scratch...)
			off += n
		}

		if len(got) != len(want) {
			t.Fatalf("iter %d (proto %s, %s): %d batch events, want %d",
				iter, proto, mode, len(got), len(want))
		}
		for i := range want {
			if !eventsEqual(got[i], want[i]) {
				t.Fatalf("iter %d (proto %s, %s): event %d differs:\n got %+v\nwant %+v",
					iter, proto, mode, i, got[i], want[i])
			}
		}
		sawEvents += len(want)
		if seqEng.TokensSeen() != batchEng.TokensSeen() {
			t.Fatalf("iter %d: token counters diverged", iter)
		}
	}
	if sawEvents == 0 {
		t.Fatal("differential corpus produced no events — the property was vacuous")
	}
}

// TestScanBatchReusesDst pins the allocation contract: a dst with spare
// capacity is extended in place.
func TestScanBatchReusesDst(t *testing.T) {
	rs := mustParse(t, `alert tcp any any -> any any (content:"attack01"; sid:1;)`)
	k := bbcrypto.DeriveBlock([]byte("scanbatch-dst"), "k")
	keys := keysFor(k, rs, tokenize.Delimiter)
	sender := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolII, 0)
	ets := sender.EncryptTokensInto(nil, tokenize.TokenizeAll(tokenize.Delimiter, []byte("hit attack01 now")))
	eng := NewEngine(rs, keys, Config{Mode: tokenize.Delimiter, Protocol: dpienc.ProtocolII})

	dst := make([]Event, 0, 16)
	out := eng.ScanBatch(ets, dst)
	if len(out) == 0 {
		t.Fatal("no events")
	}
	if &out[0] != &dst[:1][0] {
		t.Fatal("ScanBatch reallocated despite sufficient capacity")
	}
}

// TestScanBatchLargeStreamKeywordCount cross-checks aggregate semantics on
// a bigger stream: every occurrence of a repeated keyword is found exactly
// once by both paths.
func TestScanBatchLargeStreamKeywordCount(t *testing.T) {
	rs := mustParse(t, `alert tcp any any -> any any (content:"needlekw"; sid:9;)`)
	k := bbcrypto.DeriveBlock([]byte("scanbatch-count"), "k")
	keys := keysFor(k, rs, tokenize.Delimiter)

	var buf bytes.Buffer
	const occurrences = 257
	for i := 0; i < occurrences; i++ {
		fmt.Fprintf(&buf, "filler words %d then needlekw again ", i)
	}
	sender := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolII, 3)
	ets := sender.EncryptTokensInto(nil, tokenize.TokenizeAll(tokenize.Delimiter, buf.Bytes()))

	eng := NewEngine(rs, keys, Config{Mode: tokenize.Delimiter, Protocol: dpienc.ProtocolII, Salt0: 3})
	events := eng.ScanBatch(ets, nil)
	var kw int
	for _, ev := range events {
		if ev.Kind == KeywordMatch {
			kw++
		}
	}
	if kw != occurrences {
		t.Fatalf("ScanBatch found %d keyword matches, want %d", kw, occurrences)
	}
}

// TestScanBatchSteadyStateAllocatesNothing pins the detection hot path's
// allocation contract: once an engine has scanned a stretch of attack
// traffic (candidate tables at size) and the event buffer has room,
// scanning ordinary traffic batch by batch allocates nothing. (A match
// re-keys its fragment's ciphertext in the tree index, which may cost a
// node; matches are the rare case.)
func TestScanBatchSteadyStateAllocatesNothing(t *testing.T) {
	rs := mustParse(t,
		`alert tcp any any -> any any (content:"attack01"; sid:1;)`,
		`alert tcp any any -> any any (content:"exfil-marker-long"; sid:2;)`,
		`alert tcp any any -> any any (content:"evil.dll"; content:"shorty"; sid:4;)`,
	)
	k := bbcrypto.DeriveBlock([]byte("scanbatch-allocs"), "k")
	keys := keysFor(k, rs, tokenize.Delimiter)
	rng := rand.New(rand.NewSource(5))
	traffic := synthScanTraffic(rng, 16<<10)
	warm := len(traffic)
	words := []string{"the", "quick", "request", "body", "with", "plain", "words", "and", "paths/like/this"}
	for len(traffic) < warm+64<<10 {
		traffic = append(traffic, words[rng.Intn(len(words))]...)
		traffic = append(traffic, " ,;=/"[rng.Intn(5)])
	}
	sender := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolII, 0)
	ets := sender.EncryptTokensInto(nil, tokenize.TokenizeAll(tokenize.Delimiter, traffic))
	eng := NewEngine(rs, keys, Config{Mode: tokenize.Delimiter, Protocol: dpienc.ProtocolII})

	const batch = 128
	events := make([]Event, 0, batch)
	off, warmEvents := 0, 0
	for ; off < len(ets) && ets[off].Offset < warm; off += batch {
		events = eng.ScanBatch(ets[off:min(off+batch, len(ets))], events[:0])
		warmEvents += len(events)
	}
	if warmEvents == 0 {
		t.Fatal("the warm-up raised no events; the candidate tables were never used")
	}
	allocs := testing.AllocsPerRun((len(ets)-off)/batch-1, func() {
		events = eng.ScanBatch(ets[off:off+batch], events[:0])
		off += batch
	})
	if allocs != 0 {
		t.Fatalf("ScanBatch: %v allocs per batch in steady state, want 0", allocs)
	}
}
