package ruleprep

import (
	"bytes"
	"crypto/elliptic"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/dpienc"
	"repro/internal/ot"
)

// memPort is one end of an in-memory leg. Messages cross buffered channels,
// and Recv holds each message to its subtype and length as
// transport.PrepPort does.
type memPort struct {
	in  <-chan []byte
	out chan<- []byte
}

// memLeg returns the middlebox's and the endpoint's ends of one leg. Each
// direction buffers 64 messages, more than the tests' runs send before the
// other side answers (n + 1 at most, n ≤ 3), so a side whose peer has
// already failed never blocks on Send.
func memLeg() (memPort, memPort) {
	a, b := make(chan []byte, 64), make(chan []byte, 64)
	return memPort{in: a, out: b}, memPort{in: b, out: a}
}

func (p memPort) Send(msg []byte) error {
	p.out <- slices.Clone(msg)
	return nil
}

func (p memPort) Recv(want byte, size int) ([]byte, error) {
	msg, ok := <-p.in
	if !ok {
		return nil, io.EOF
	}
	if len(msg) != 1+size || msg[0] != want {
		return nil, &MessageError{Want: want, Size: size}
	}
	return msg[1:], nil
}

// tamperPort is an endpoint's end of a leg whose outgoing messages pass
// through tamper first (each is already the receiver's copy).
type tamperPort struct {
	memPort
	tamper func(msg []byte)
}

func (p tamperPort) Send(msg []byte) error {
	msg = slices.Clone(msg)
	p.tamper(msg)
	p.out <- msg
	return nil
}

// runOverPorts runs Run with d against epS (the client) and epR (the
// server), each serving its leg over an in-memory port, and returns Run's
// result and both endpoints' errors. tamper, if set, sees every message an
// endpoint sends, with its role, before the middlebox does.
func runOverPorts(epS, epR *Endpoint, mb *Middlebox, d Dial, tamper func(client bool, msg []byte)) ([]*dpienc.TokenKey, string, error, [2]error) {
	mbC, epC := memLeg()
	mbS, epSv := memLeg()
	var epErr [2]error
	done := make(chan struct{}, 2)
	for i, leg := range []struct {
		ep     *Endpoint
		port   memPort
		client bool
	}{{epS, epC, true}, {epR, epSv, false}} {
		var p Port = leg.port
		if tamper != nil {
			p = tamperPort{leg.port, func(msg []byte) { tamper(leg.client, msg) }}
		}
		go func() {
			epErr[i] = leg.ep.Serve(p, leg.client)
			done <- struct{}{}
		}()
	}
	keys, outcome, err := mb.Run(mbC, mbS, d)
	// An endpoint whose middlebox gave up waits for a message that will not
	// come: closing its inbound channel ends it.
	close(mbC.out)
	close(mbS.out)
	<-done
	<-done
	return keys, outcome, err, epErr
}

// TestRunOverPortsProducesCorrectTokenKeys: the middlebox's Run against two
// endpoints' Serve yields RunLocal's keys — AES_k of every authorized
// fragment, nil for one RG never tagged — and both endpoints end at Done.
func TestRunOverPortsProducesCorrectTokenKeys(t *testing.T) {
	frags := []string{"maliciou", "iciously", "autherok"}
	epS, epR, mb, k, _ := setup(t, frags, 2)
	keys, _, err, epErr := runOverPorts(epS, epR, mb, Dial{}, nil)
	if err != nil || epErr[0] != nil || epErr[1] != nil {
		t.Fatalf("Run = %v, client %v, server %v", err, epErr[0], epErr[1])
	}
	if err := keysErr(keys, frags[:2], k); err != nil {
		t.Fatal(err)
	}
	if keys[2] != nil {
		t.Fatal("unauthorized fragment produced a token key")
	}
}

// TestRunRefusesMismatchedEndpoints: endpoints garbling from different
// randomness fail verification, and neither is told Done.
func TestRunRefusesMismatchedEndpoints(t *testing.T) {
	epS, _, mb, _, kRG := setup(t, []string{"somefrag"})
	cheat := NewEndpoint(bbcrypto.RandomBlock(), kRG, bbcrypto.RandomBlock())
	_, _, err, epErr := runOverPorts(epS, cheat, mb, Dial{}, nil)
	if err == nil {
		t.Fatal("mismatched endpoints accepted")
	}
	for i, e := range epErr {
		if !errors.Is(e, io.EOF) {
			t.Fatalf("endpoint %d: %v, want it still waiting for Done", i, e)
		}
	}
}

// TestLabelCommitmentChecked: the middlebox checks each label the server's
// OT hands over against the client's commitment at its choice bit. A wrong
// label, or a wrong commitment at the chosen bit, ends preparation in
// ErrLabelCommitment with no key for any fragment and neither endpoint told
// Done. A wrong commitment at the bit the middlebox did not choose is never
// checked, so it goes unnoticed and the keys come out right (DESIGN.md
// substitution 1, "One OT phase"), as a wrong OT label at that bit does.
func TestLabelCommitmentChecked(t *testing.T) {
	const frag, wire = 1, 200 // a tag wire of the second fragment
	frags := []string{"maliciou", "iciously"}
	for _, tc := range []struct {
		name   string
		client bool // whose message is changed: the client's digests or the server's masked labels
		chosen bool // the changed commitment is at the middlebox's choice bit
	}{
		{"(a) server's OT delivers a wrong label", false, true},
		{"(b) client commits wrongly at the chosen bit", true, true},
		{"(c) client commits wrongly at the other bit", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			epS, epR, mb, k, _ := setup(t, frags)
			choice := bit(mb.Choices(frag)[wire])
			seen := 0
			keys, _, err, epErr := runOverPorts(epS, epR, mb, Dial{}, func(client bool, msg []byte) {
				switch {
				case client != tc.client:
				case client && msg[0] == SubDigest && binary.BigEndian.Uint32(msg[1:]) == frag:
					b := choice
					if !tc.chosen {
						b = 1 - choice
					}
					msg[1+4+32+(2*wire+b)*16] ^= 1
					seen++
				case !client && msg[0] == SubMasked:
					// Both masked blocks of the wire, so the label OT
					// delivers is wrong whichever bit is chosen.
					at := 1 + 2*(frag*OTWires+wire)*16
					msg[at] ^= 1
					msg[at+16] ^= 1
					seen++
				}
			})
			if seen != 1 {
				t.Fatalf("changed %d messages, want 1", seen)
			}
			if !tc.chosen {
				if err != nil || epErr[0] != nil || epErr[1] != nil {
					t.Fatalf("Run = %v, client %v, server %v", err, epErr[0], epErr[1])
				}
				if err := keysErr(keys, frags, k); err != nil {
					t.Fatal(err)
				}
				return
			}
			if !errors.Is(err, ErrLabelCommitment) || keys != nil {
				t.Fatalf("Run = %d keys, %v, want no keys and ErrLabelCommitment", len(keys), err)
			}
			for i, e := range epErr {
				if !errors.Is(e, io.EOF) {
					t.Fatalf("endpoint %d: %v, want it still waiting for Done", i, e)
				}
			}
		})
	}
}

// TestMessageCodecsRoundTrip: each message BodyLen sizes is built and read
// back at exactly that length — the masked pairs block by block in wire
// order, the correction matrix as equal columns.
func TestMessageCodecsRoundTrip(t *testing.T) {
	const n = 3
	pairs := make([][2]bbcrypto.Block, OTWires*n)
	for i := range pairs {
		pairs[i] = [2]bbcrypto.Block{{byte(i), 0}, {byte(i), 1}}
	}
	msg := appendPairs([]byte{SubMasked}, pairs)
	if len(msg) != 1+BodyLen(SubMasked, n) {
		t.Fatalf("masked message of %d bytes, want %d", len(msg), 1+BodyLen(SubMasked, n))
	}
	if !bytes.Equal(msg[1+16:1+32], pairs[0][1][:]) {
		t.Fatal("a pair's second block does not follow its first")
	}
	if got := parsePairs(msg[1:]); !slices.Equal(got, pairs) {
		t.Fatal("masked pairs do not round-trip")
	}
	u := make([]byte, BodyLen(SubU, n))
	for i := range u {
		u[i] = byte(i)
	}
	cols := columns(u, 128)
	if len(cols) != 128 || len(cols[0]) != OTWires*n/8 || cols[1][0] != u[OTWires*n/8] {
		t.Fatalf("%d columns of %d bytes, want 128 of %d", len(cols), len(cols[0]), OTWires*n/8)
	}
	if got := message(SubU, cols); got[0] != SubU || !bytes.Equal(got[1:], u) {
		t.Fatal("columns do not re-form the correction matrix")
	}
}

// fuzzMsg frames one scripted message for FuzzServe: subtype, uint16 body
// length, body.
func fuzzMsg(sub byte, body []byte) []byte {
	return append(binary.BigEndian.AppendUint16([]byte{sub}, uint16(len(body))), body...)
}

// scriptPort plays a middlebox that sends a fixed script of messages and
// ignores what it receives. got is what Serve took from it, in order, due
// the subtype its last Recv asked for, and sent the first two bytes of each
// message Serve sent.
type scriptPort struct {
	msgs [][]byte
	got  []byte
	due  byte
	sent [][]byte
}

func (p *scriptPort) Send(msg []byte) error {
	p.sent = append(p.sent, slices.Clone(msg[:min(2, len(msg))]))
	return nil
}

func (p *scriptPort) Recv(want byte, size int) ([]byte, error) {
	p.due = want
	if len(p.msgs) == 0 {
		return nil, io.EOF
	}
	msg := p.msgs[0]
	p.msgs = p.msgs[1:]
	if len(msg) != 1+size || msg[0] != want {
		return nil, &MessageError{Want: want, Size: size}
	}
	p.got = append(p.got, want)
	return msg[1:], nil
}

// FuzzServe: an endpoint served any sequence of messages, of any subtype
// and length, from a middlebox announcing at most two fragments, ends in an
// error or nil, never a panic or a hang, and in nil only after its role's
// one legal order: Start, Done for a client; Resume, MsgA, U, Done for a
// server that sent verdict 0, and Resume, U, Done for one that sent 1. Each
// run starts with one state kept under fuzzKept, so a Resume naming it at
// a position above 0 resumes.
func FuzzServe(f *testing.F) {
	start := func(n uint32) []byte { return fuzzMsg(SubStart, binary.BigEndian.AppendUint32(nil, n)) }
	resume := func(n uint32, id StateID, c uint32) []byte {
		return fuzzMsg(SubResume, appendResume(nil, int(n), id, c)[1:])
	}
	point := elliptic.Marshal(elliptic.P256(), elliptic.P256().Params().Gx, elliptic.P256().Params().Gy)
	u1, done := fuzzMsg(SubU, make([]byte, BodyLen(SubU, 1))), fuzzMsg(SubDone, nil)
	legal := slices.Concat(resume(1, StateID{}, 0), fuzzMsg(SubMsgA, point), u1, done)
	resumed := slices.Concat(resume(1, fuzzKept, 1), u1, done)
	f.Add(false, legal)
	f.Add(false, resumed)
	f.Add(false, slices.Concat(resume(1, fuzzKept, 0), fuzzMsg(SubMsgA, point), u1, done))
	f.Add(false, slices.Concat(resume(1, StateID{}, 1), u1, done))
	f.Add(true, slices.Concat(start(1), done))
	f.Add(false, slices.Concat(start(0), fuzzMsg(SubMsgA, point), fuzzMsg(SubU, nil), done))
	f.Add(false, slices.Concat(resume(1, StateID{}, 0), done))
	f.Add(true, slices.Concat(start(1), start(1)))
	f.Add(false, slices.Concat(resume(1, StateID{}, 0), fuzzMsg(SubMsgA, make([]byte, len(point)))))
	f.Add(false, legal[:len(legal)-3])
	f.Add(true, legal)
	sender := ot.NewExtSender()
	f.Fuzz(func(t *testing.T, client bool, data []byte) {
		var msgs [][]byte
		for len(data) >= 3 {
			n := int(binary.BigEndian.Uint16(data[1:]))
			if len(data) < 3+n {
				break
			}
			msg := append([]byte{data[0]}, data[3:3+n]...)
			if (msg[0] == SubStart || msg[0] == SubResume) && n >= 4 && binary.BigEndian.Uint32(msg[1:]) > 2 {
				return // garbling more fragments only slows the search
			}
			msgs = append(msgs, msg)
			data = data[3+n:]
		}
		keptSenders.clear()
		keptSenders.keep(fuzzKept, sender)
		p := &scriptPort{msgs: msgs}
		ep := NewEndpoint(bbcrypto.Block{1}, bbcrypto.Block{2}, bbcrypto.Block{3})
		if err := ep.Serve(p, client); err != nil {
			return
		}
		want := []byte{SubResume, SubMsgA, SubU, SubDone}
		switch {
		case client:
			want = []byte{SubStart, SubDone}
		case p.sent[0][1] == verdictResume:
			want = []byte{SubResume, SubU, SubDone}
		}
		if !bytes.Equal(p.got, want) {
			t.Fatalf("Serve returned nil after messages %v, want %v", p.got, want)
		}
	})
}

// fuzzKept is the state ID FuzzServe keeps a state under.
var fuzzKept = StateID{'f', 'u', 'z', 'z'}
