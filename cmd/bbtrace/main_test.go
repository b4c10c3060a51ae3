package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/tokenize"
)

// TestGenInspectRoundTrip writes a 40-flow trace with -gen and reads it
// back with -inspect: the reassembled flows must be the generated payloads
// byte for byte, and the printed table must be the §7.1 score of those
// payloads.
func TestGenInspectRoundTrip(t *testing.T) {
	spec, _ := corpus.DatasetByName("Snort Emerging Threats (HTTP)")
	spec.NumRules = 100
	spec.P2Frac = 1
	rs, err := spec.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	const (
		flows, flowBytes = 40, 8 << 10
		attacks, mis     = 1.5, 0.1
		seed             = 3
	)
	path := filepath.Join(t.TempDir(), "trace.pcap")
	if err := generate(path, rs, flows, flowBytes, attacks, mis, seed); err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	pkts := 0
	for _, f := range corpus.AttackTrace(seed, rs, corpus.TraceConfig{
		Flows: flows, FlowBytes: flowBytes, AttacksPerFlow: attacks, MisalignFraction: mis,
	}) {
		payloads = append(payloads, f.Payload)
		pkts += len(packet.Segmentize(packet.FlowKey{}, f.Payload, 1460))
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_, read, _, err := pcapio.ReadTCPFlows(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(read) != flows {
		t.Fatalf("read %d flows, wrote %d", len(read), flows)
	}
	for i := range payloads {
		if !bytes.Equal(read[i], payloads[i]) {
			t.Fatalf("flow %d: read %d bytes that differ from the %d written", i, len(read[i]), len(payloads[i]))
		}
	}

	for _, mode := range []tokenize.Mode{tokenize.Window, tokenize.Delimiter} {
		var got, want bytes.Buffer
		if err := inspectPcap(&got, path, rs, mode); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "inspected %d packets, %d flows (%s tokens)\n", pkts, flows, mode)
		experiments.PrintAccuracy(&want, []experiments.AccuracyResult{experiments.ScoreAccuracy(rs, mode, payloads)})
		if got.String() != want.String() {
			t.Errorf("%s: -inspect printed\n%s\nwant\n%s", mode, got.String(), want.String())
		}
	}
}
