package pcapio

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
)

const goldenP2P = "testdata/p2p_golden.pcap"

// readGolden opens the checked-in P2P capture.
func readGolden(t *testing.T) []byte {
	t.Helper()
	blob, err := os.ReadFile(goldenP2P)
	if err != nil {
		t.Fatalf("golden fixture missing (regenerate with go run ./internal/pcapio/testdata): %v", err)
	}
	return blob
}

// TestGoldenP2PReplayMatchesCorpus replays the checked-in capture through
// the full parse/reassembly path and requires the reassembled flows to be
// byte-identical, flow for flow, to the deterministic BitTorrent corpus it
// was generated from — pinning both the corpus generator and the capture
// format against drift.
func TestGoldenP2PReplayMatchesCorpus(t *testing.T) {
	_, payloads, _, err := ReadTCPFlows(bytes.NewReader(readGolden(t)))
	if err != nil {
		t.Fatal(err)
	}

	flows := corpus.BitTorrentFlows(1)
	if len(payloads) != len(flows) {
		t.Fatalf("replayed %d flows, corpus has %d", len(payloads), len(flows))
	}
	for i, f := range flows {
		if !bytes.Equal(payloads[i], f.Payload) {
			t.Errorf("flow %d (%s): replayed payload diverges from corpus (%d vs %d bytes)",
				i, f.Name, len(payloads[i]), len(f.Payload))
		}
	}
}

// TestGoldenP2PRoundTrip reads every record of the golden capture and
// rewrites it; the result must be byte-identical to the fixture (the
// writer emits the same canonical little-endian form the fixture uses).
func TestGoldenP2PRoundTrip(t *testing.T) {
	blob := readGolden(t)
	r, err := NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) == 0 {
		t.Fatal("golden capture is empty")
	}

	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), blob) {
		t.Fatalf("rewritten capture diverges from fixture (%d vs %d bytes)", buf.Len(), len(blob))
	}
}

// TestMalformedRecordHeader exercises the record-header error paths on a
// mutated copy of the golden capture: an absurd capture length must be
// rejected before any allocation, and a record header cut mid-way must
// surface EOF cleanly.
func TestMalformedRecordHeader(t *testing.T) {
	blob := readGolden(t)

	// Corrupt the first record header's caplen field (offset 24 global
	// header + 8 into the record header) to exceed the snap length.
	bad := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(bad[24+8:24+12], maxSnapLen+1)
	r, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); err == nil {
		t.Fatal("oversize caplen accepted")
	}

	// A record header truncated mid-way reads as end of capture.
	r, err = NewReader(bytes.NewReader(blob[:24+7]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); err != io.EOF {
		t.Fatalf("truncated record header: got %v, want io.EOF", err)
	}

	// Declared caplen larger than the remaining bytes must error, not
	// return a short packet.
	cut := append([]byte(nil), blob[:len(blob)-10]...)
	r, err = NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err = r.ReadPacket()
		if err != nil {
			break
		}
	}
	if err == io.EOF {
		t.Fatal("capture truncated mid-record read as clean EOF")
	}
}

// TestGoldenP2PFixtureTracked guards against the fixture silently
// vanishing from version control: it must exist and be non-trivial.
func TestGoldenP2PFixtureTracked(t *testing.T) {
	fi, err := os.Stat(filepath.FromSlash(goldenP2P))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 1024 {
		t.Fatalf("golden fixture suspiciously small: %d bytes", fi.Size())
	}
}
