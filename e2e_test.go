// End-to-end conformance suite: full client -> middlebox -> server sessions
// over all three protocols, held to an independent reference. What the live
// middlebox reports — alerts from its detection pool, in order within each
// connection direction — must be exactly what one sequential, offline pass
// of the same bytes through core.Scan (and, under Protocol III, the
// plaintext IDS) predicts.
package blindbox

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/middlebox"
)

// canonAlert is an Alert reduced to its pipeline-independent fields: the
// recovered key value is excluded (session keys differ per run), but
// whether a key was recovered is kept.
type canonAlert struct {
	Secondary bool
	SIDs      string
	Kind      detect.EventKind
	SID       int
	KwIdx     int
	Offset    int
	HasKey    bool
}

func canonicalize(a Alert) canonAlert {
	c := canonAlert{Secondary: a.Secondary}
	if a.Secondary {
		c.SIDs = fmt.Sprint(a.SecondarySIDs)
		return c
	}
	c.Kind = a.Event.Kind
	if a.Event.Rule != nil {
		c.SID = a.Event.Rule.SID
	}
	c.KwIdx = a.Event.KeywordIndex
	c.Offset = a.Event.Offset
	c.HasKey = a.Event.HasSSLKey
	return c
}

// dirAlerts groups one session's canonical alerts by direction: alerts are
// ordered within a direction, unordered across directions.
type dirAlerts map[middlebox.Direction][]canonAlert

type conformanceCase struct {
	name      string
	cfg       Config
	rulesText string
	secondary bool
}

func conformanceCases() []conformanceCase {
	single := strings.Join([]string{
		`alert tcp any any -> any any (msg:"kw1"; content:"attack01"; sid:1;)`,
		`alert tcp any any -> any any (msg:"kw2"; content:"exfilkw9"; sid:2;)`,
	}, "\n")
	multi := single + "\n" +
		`alert tcp any any -> any any (msg:"multi"; content:"evilhdrX"; content:"attack01"; sid:3;)`
	ids := multi + "\n" +
		`alert tcp any any -> any any (msg:"pc"; content:"attack01"; pcre:"/attack01=[0-9]+/"; sid:4;)`
	return []conformanceCase{
		{"protocolI-delimiter", Config{Protocol: ProtocolI, Mode: DelimiterTokens}, single, false},
		{"protocolII-delimiter", Config{Protocol: ProtocolII, Mode: DelimiterTokens}, multi, false},
		{"protocolIII-window", Config{Protocol: ProtocolIII, Mode: WindowTokens}, ids, true},
	}
}

// conformancePayload builds one seeded traffic sample with the suite's
// attack keywords planted at delimiter boundaries.
func conformancePayload(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	base := corpus.SynthesizeText(rng, n)
	kws := []string{"attack01", "exfilkw9", "evilhdrX", "attack01=777"}
	var buf bytes.Buffer
	chunk := len(base) / (len(kws) + 1)
	for i, kw := range kws {
		buf.Write(base[i*chunk : (i+1)*chunk])
		buf.WriteString(" " + kw + " ")
	}
	buf.Write(base[(len(kws))*chunk:])
	return buf.Bytes()
}

// conformanceWrite is the size of the client's writes; the echo server
// writes each payload back in one piece.
const conformanceWrite = 3000

// runConformance drives `sessions` sequential client sessions through one
// live middlebox and returns each session's payload and its per-direction
// alert sequences.
func runConformance(t *testing.T, tc conformanceCase, rs *Ruleset, sessions int) ([][]byte, []dirAlerts) {
	t.Helper()
	g, err := NewRuleGenerator("ConformanceRG")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		alerts []Alert
	)
	mb, err := NewMiddlebox(MiddleboxConfig{
		Ruleset:     g.Sign(rs),
		RGPublicKey: g.PublicKey(),
		Secondary:   tc.secondary,
		OnAlert: func(a Alert) {
			mu.Lock()
			alerts = append(alerts, a)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	serverLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer serverLn.Close()
	mbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mbLn.Close()
	epCfg := ConnConfig{Core: DefaultConfig(), RG: RGMaterial{TagKey: g.TagKey()}}
	go func() {
		for {
			raw, err := serverLn.Accept()
			if err != nil {
				return
			}
			go func() {
				conn, err := Server(raw, epCfg)
				if err != nil {
					raw.Close()
					return
				}
				data, err := io.ReadAll(conn)
				if err != nil {
					conn.Close()
					return
				}
				conn.Write(data)
				conn.CloseWrite()
				conn.Close()
			}()
		}
	}()
	go mb.Serve(mbLn, serverLn.Addr().String())

	payloads := make([][]byte, sessions)
	for s := range payloads {
		conn, err := Dial(mbLn.Addr().String(), ConnConfig{Core: tc.cfg, RG: RGMaterial{TagKey: g.TagKey()}})
		if err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
		payload := conformancePayload(1000+int64(s), 8<<10)
		payloads[s] = payload
		for off := 0; off < len(payload); off += conformanceWrite {
			if _, err := conn.Write(payload[off:min(off+conformanceWrite, len(payload))]); err != nil {
				t.Fatalf("session %d write: %v", s, err)
			}
		}
		if err := conn.CloseWrite(); err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
		echoed, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("session %d read: %v", s, err)
		}
		if !bytes.Equal(echoed, payload) {
			t.Fatalf("session %d echo mismatch: %d bytes, want %d", s, len(echoed), len(payload))
		}
		conn.Close()
	}
	// Drain queued detection work so the alert log is complete.
	if err := mb.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	byConn := map[uint64]dirAlerts{}
	for _, a := range alerts {
		da, ok := byConn[a.ConnID]
		if !ok {
			da = dirAlerts{}
			byConn[a.ConnID] = da
		}
		da[a.Direction] = append(da[a.Direction], canonicalize(a))
	}
	if len(byConn) != sessions {
		t.Fatalf("%d connections alerted, want %d (every session carries attack keywords)",
			len(byConn), sessions)
	}
	// Sessions ran one after another, so ascending ConnID is session order.
	ids := make([]uint64, 0, len(byConn))
	for id := range byConn {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]dirAlerts, 0, sessions)
	for _, id := range ids {
		out = append(out, byConn[id])
	}
	return payloads, out
}

// offlineAlerts is the reference for one direction that carried payload in
// writes of at most `write` bytes: the canonical alerts of core.Scan over
// the same bytes, which ends with the flush an orderly close sends. Events
// carry no key material, so token keys computed directly under Scan's
// session key give the same canonical alerts as the live flow's prepared
// ones. When the pass recovers the Protocol III key and the secondary
// element is on, the plaintext IDS's verdict over the whole payload
// follows, as the middlebox reports it at close.
func offlineAlerts(tc conformanceCase, rs *Ruleset, payload []byte, write int) []canonAlert {
	var cuts []int
	for off := write; off < len(payload); off += write {
		cuts = append(cuts, off)
	}
	evs, _ := core.Scan(rs, tc.cfg, payload, cuts)
	var (
		out       []canonAlert
		recovered bool
	)
	for _, ev := range evs {
		out = append(out, canonicalize(Alert{Event: ev}))
		recovered = recovered || ev.HasSSLKey
	}
	if tc.secondary && recovered {
		if sids := baseline.New(rs).Inspect(payload).RuleSIDs; len(sids) > 0 {
			out = append(out, canonicalize(Alert{Secondary: true, SecondarySIDs: sids}))
		}
	}
	return out
}

// TestE2EConformanceSequentialVsParallel is the suite's core claim: for
// seeded corpora on all three protocols, the live middlebox's parallel
// detection pool reports, per session and direction, exactly the alert
// sequence of the sequential offline reference (offlineAlerts).
func TestE2EConformanceSequentialVsParallel(t *testing.T) {
	sessions := 3
	if testing.Short() {
		sessions = 2
	}
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			rs, err := ParseRules("e2e", tc.rulesText)
			if err != nil {
				t.Fatal(err)
			}
			payloads, live := runConformance(t, tc, rs, sessions)
			total, recovered := 0, false
			for s, payload := range payloads {
				for _, d := range []struct {
					dir   middlebox.Direction
					write int
				}{
					{middlebox.ClientToServer, conformanceWrite},
					{middlebox.ServerToClient, len(payload)},
				} {
					got, want := live[s][d.dir], offlineAlerts(tc, rs, payload, d.write)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("session %d %s: alert sequences differ\nlive middlebox:    %+v\noffline reference: %+v",
							s, d.dir, got, want)
					}
					total += len(got)
					for _, a := range got {
						recovered = recovered || a.HasKey || a.Secondary
					}
				}
			}
			if total == 0 {
				t.Fatal("no alerts on either side — the conformance check was vacuous")
			}
			if tc.cfg.Protocol == ProtocolIII && !recovered {
				t.Fatal("Protocol III conformance ran without probable-cause recovery")
			}
		})
	}
}
