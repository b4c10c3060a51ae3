// Package blindbox is the public API of this BlindBox implementation — a
// from-scratch Go reproduction of "BlindBox: Deep Packet Inspection over
// Encrypted Traffic" (Sherry, Lan, Popa, Ratnasamy — SIGCOMM 2015).
//
// BlindBox lets a middlebox perform deep packet inspection directly over
// encrypted traffic: endpoints speak BlindBox HTTPS (an encrypted transport
// plus a searchable-encrypted token side channel), and the middlebox
// matches attack rules against the tokens without ever holding the session
// key. Three protocols are provided:
//
//   - Protocol I: single-keyword rules, exact-match privacy;
//   - Protocol II: multi-keyword rules with offset information;
//   - Protocol III: full IDS (regexps) under probable-cause privacy — the
//     middlebox can decrypt a flow only after a suspicious keyword matched.
//
// A minimal deployment has four parties, mirroring Fig. 1 of the paper:
//
//	rg, _ := blindbox.NewRuleGenerator("ExampleRG")       // rule generator
//	rs, _ := blindbox.ParseRules("demo", ruleText)        //
//	signed := rg.Sign(rs)                                 // signed ruleset
//
//	mb, _ := blindbox.NewMiddlebox(blindbox.MiddleboxConfig{   // middlebox
//	    Ruleset:     signed,
//	    RGPublicKey: rg.PublicKey(),
//	    OnAlert:     func(a blindbox.Alert) { log.Println(a.Event.Rule.Msg) },
//	})
//	go mb.Serve(listener, serverAddr)
//
//	cfg := blindbox.ConnConfig{                           // endpoints
//	    Core: blindbox.DefaultConfig(),
//	    RG:   blindbox.RGMaterial{TagKey: rg.TagKey()},
//	}
//	conn, _ := blindbox.Dial(mbAddr, cfg)                 // client
//	conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
//
// See the examples directory for complete programs (quickstart,
// exfiltration detection, parental filtering, and a full Protocol III IDS)
// and cmd/blindbench for the harness that regenerates every table and
// figure of the paper's evaluation.
package blindbox

import (
	"io"
	"net"
	"net/http"

	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/middlebox"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/tokenize"
	"repro/internal/transport"
)

// Protocol selects the BlindBox protocol (§2.4 of the paper).
type Protocol = dpienc.Protocol

// The three BlindBox protocols.
const (
	// ProtocolI supports one exact-match keyword per rule.
	ProtocolI = dpienc.ProtocolI
	// ProtocolII adds multiple keywords and offset information.
	ProtocolII = dpienc.ProtocolII
	// ProtocolIII adds probable-cause decryption for full IDS rules.
	ProtocolIII = dpienc.ProtocolIII
)

// Mode selects the tokenization algorithm (§3).
type Mode = tokenize.Mode

// The two tokenization modes.
const (
	// WindowTokens emits one token per byte offset.
	WindowTokens = tokenize.Window
	// DelimiterTokens emits only delimiter-anchored tokens.
	DelimiterTokens = tokenize.Delimiter
)

// Config fixes a connection's protocol parameters.
type Config = core.Config

// DefaultConfig is Protocol II with delimiter tokenization — the paper's
// primary evaluation configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// ConnConfig configures an endpoint connection.
type ConnConfig = transport.ConnConfig

// RGMaterial is the rule-generator configuration installed at endpoints.
type RGMaterial = transport.RGMaterial

// Conn is a BlindBox HTTPS connection endpoint.
type Conn = transport.Conn

// Dial opens a BlindBox HTTPS client connection to addr.
func Dial(addr string, cfg ConnConfig) (*Conn, error) { return transport.Dial(addr, cfg) }

// Client runs the client handshake over an existing transport.
func Client(raw net.Conn, cfg ConnConfig) (*Conn, error) { return transport.Client(raw, cfg) }

// Server runs the server handshake over an accepted transport.
func Server(raw net.Conn, cfg ConnConfig) (*Conn, error) { return transport.Server(raw, cfg) }

// Mux multiplexes SPDY-like logical streams over one BlindBox HTTPS
// connection, amortizing the handshake and rule preparation across many
// requests — the persistent-connection setting the paper recommends (§1).
type Mux = transport.Mux

// Stream is one logical flow within a Mux.
type Stream = transport.Stream

// NewMux wraps an established connection for stream multiplexing. The
// connection initiator (client) passes true.
func NewMux(conn *Conn, initiator bool) *Mux { return transport.NewMux(conn, initiator) }

// Middlebox is the BlindBox DPI middlebox.
type Middlebox = middlebox.Middlebox

// MiddleboxConfig configures a middlebox.
type MiddleboxConfig = middlebox.Config

// Alert is a middlebox detection report.
type Alert = middlebox.Alert

// Event is one primary detection event.
type Event = detect.Event

// Detection event kinds.
const (
	// KeywordMatch fires per matched rule keyword.
	KeywordMatch = detect.KeywordMatch
	// RuleMatch fires when a whole rule is satisfied.
	RuleMatch = detect.RuleMatch
)

// NewMiddlebox validates the signed ruleset and builds a middlebox.
func NewMiddlebox(cfg MiddleboxConfig) (*Middlebox, error) { return middlebox.New(cfg) }

// Ruleset is a parsed rule collection.
type Ruleset = rules.Ruleset

// Rule is one parsed IDS rule.
type Rule = rules.Rule

// SignedRuleset is a ruleset with RG provenance and authorization tags.
type SignedRuleset = rules.SignedRuleset

// RuleGenerator is the RG role: it signs rulesets and issues the keys that
// authorize keyword encryption.
type RuleGenerator = rules.Generator

// NewRuleGenerator creates an RG with fresh keys.
func NewRuleGenerator(name string) (*RuleGenerator, error) { return rules.NewGenerator(name) }

// ParseRules parses a Snort-compatible ruleset.
func ParseRules(name, text string) (*Ruleset, error) { return rules.Parse(name, text) }

// ParseRule parses a single rule line.
func ParseRule(line string) (*Rule, error) { return rules.ParseRule(line) }

// SessionKeys are the three per-connection keys (kSSL, k, krand) of §2.3.
type SessionKeys = bbcrypto.SessionKeys

// Metrics is a metrics registry: install one in MiddleboxConfig.Metrics or
// RecorderConfig.Metrics and serve it with AdminMux. A nil *Metrics
// disables collection at near-zero cost.
type Metrics = obs.Registry

// NewMetrics creates an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// AdminMux serves r as Prometheus text on /metrics, JSON on /metrics.json,
// a liveness probe on /healthz, and net/http/pprof under /debug/pprof/.
func AdminMux(r *Metrics) *http.ServeMux { return obs.AdminMux(r) }

// Span is one per-flow trace record (see the obs package for the schema).
type Span = obs.Span

// TraceSink receives pipeline spans; install one in MiddleboxConfig.Trace
// or ConnConfig.Trace.
type TraceSink = obs.Sink

// NewTraceSink writes spans to w as JSON lines, one span per line, buffered
// — the format `bbtrace -spans` consumes. Call Flush before closing w.
func NewTraceSink(w io.Writer) *obs.JSONLSink { return obs.NewJSONLSink(w) }

// Recorder is the flight-recorder / tail-sampling layer: install one in
// MiddleboxConfig.Recorder or ConnConfig.Recorder to bound tracing cost —
// head-sampled flows stream their spans, flows ending in an interesting
// state flush a bounded per-flow ring, the rest cost nothing downstream
// (DESIGN.md §8).
type Recorder = obs.Recorder

// RecorderConfig configures a Recorder (ring size, head-sampling rate,
// sink, self-metrics).
type RecorderConfig = obs.RecorderConfig

// FlowSummary is one row of the recorder's /debug/flows tables.
type FlowSummary = obs.FlowSummary

// NewRecorder builds a flight recorder; mount its debug endpoints on an
// AdminMux with Recorder.Mount.
func NewRecorder(cfg RecorderConfig) *Recorder { return obs.NewRecorder(cfg) }
