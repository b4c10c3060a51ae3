// Command bbmb runs a BlindBox middlebox: it listens for BlindBox HTTPS
// clients, proxies them to an upstream server, performs obfuscated rule
// encryption with both endpoints, and inspects the encrypted token stream
// against a ruleset.
//
// Usage:
//
//	bbmb -listen :8443 -forward server:9443 -rules rules.txt -rgconfig rg.json [-secondary]
//	     [-admin :8081] [-worker mb-a] [-trace spans.jsonl] [-trace-sample 0.01] [-recorder-events 256]
//	     [-log-level info] [-policy fail-closed] [-dial-retries 3]
//	     [-timeout-handshake 10s] [-timeout-prep 60s] [-timeout-idle -1s]
//	     [-timeout-write 1m] [-timeout-barrier 30s]
//
// The ruleset and RG configuration are produced by bbrulegen. With -admin,
// the middlebox serves Prometheus metrics on /metrics, a JSON snapshot on
// /metrics.json, net/http/pprof under /debug/pprof/, and the flight
// recorder's flow tables on /debug/flows and /debug/flightrecorder?flow=N.
// -worker names this middlebox for fleet aggregation: the name is exported
// as blindbox_worker_info{worker=...} so `bbfleet` can confirm it scraped
// the worker it thinks it scraped (RUNBOOK.md, Fleet observability).
// With -trace, spans are appended to the given JSONL file, summarizable
// with `bbtrace -spans`: head-sampled flows (-trace-sample of flows,
// decided at the client when it traces, here otherwise) stream every span,
// and every other flow buffers its last -recorder-events spans in a
// per-flow ring flushed only on an interesting end — alert, block,
// timeout, degradation, retry exhaustion or connection error. -trace-sample 1
// streams everything (the legacy behavior); 0 keeps only interesting flows.
//
// The fault-tolerance knobs (RUNBOOK.md) bound every blocking step: a
// timeout flag of 0 selects the library default, a negative value disables
// that deadline. -policy picks what happens when detection cannot keep up
// inside the barrier deadline: fail-closed (default, the paper's stance —
// the flow is killed rather than forwarded unscanned) or fail-open (the
// flow degrades to plain forwarding and is counted in
// blindbox_mb_unscanned_bytes_total).
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"

	blindbox "repro"
	"repro/internal/middlebox"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/rgconfig"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8443", "address to accept BlindBox HTTPS clients on")
	forward := flag.String("forward", "", "upstream server address (required)")
	rulesPath := flag.String("rules", "", "signed ruleset file from bbrulegen (required)")
	rgPath := flag.String("rgconfig", "", "rule-generator public configuration from bbrulegen (required)")
	secondary := flag.Bool("secondary", false, "enable the Protocol III decryption element and secondary inspection")
	admin := flag.String("admin", "", "serve /metrics, /metrics.json and /debug/pprof on this address")
	worker := flag.String("worker", "", "fleet-wide worker name, exported as blindbox_worker_info for bbfleet")
	tracePath := flag.String("trace", "", "append per-flow JSONL spans to this file")
	traceSample := flag.Float64("trace-sample", 1, "head-sampling rate: fraction of flows that stream every span (interesting flows always flush)")
	recorderEvents := flag.Int("recorder-events", obs.DefaultRecorderEvents, "per-flow flight-recorder ring capacity in spans")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn or error")
	policy := flag.String("policy", "fail-closed", "degradation policy on barrier timeout: fail-closed or fail-open")
	dialRetries := flag.Int("dial-retries", 0, "upstream dial attempts (0 = default 3)")
	tmoHandshake := flag.Duration("timeout-handshake", 0, "interposed handshake deadline (0 = default 10s, negative disables)")
	tmoPrep := flag.Duration("timeout-prep", 0, "per-leg rule-preparation deadline (0 = default 60s, negative disables)")
	tmoIdle := flag.Duration("timeout-idle", 0, "idle read deadline on forwarded flows (0 = default off, negative disables)")
	tmoWrite := flag.Duration("timeout-write", 0, "per-record forward write deadline (0 = default 1m, negative disables)")
	tmoBarrier := flag.Duration("timeout-barrier", 0, "detection barrier deadline (0 = default 30s, negative disables)")
	flag.Parse()
	if *forward == "" || *rulesPath == "" || *rgPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	pol, err := middlebox.ParsePolicy(*policy)
	if err != nil {
		log.Fatalf("bad -policy: %v", err)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		log.Fatalf("bad -log-level: %v", err)
	}
	logger := obs.NewLogger(os.Stderr, level)

	signed, err := rgconfig.LoadSignedRuleset(*rulesPath)
	if err != nil {
		log.Fatalf("loading ruleset: %v", err)
	}
	pub, _, err := rgconfig.LoadPublic(*rgPath)
	if err != nil {
		log.Fatalf("loading RG config: %v", err)
	}

	reg := obs.NewRegistry()
	obs.RegisterWorkerInfo(reg, *worker)
	trace, flushTrace, err := obs.OpenTraceFile(*tracePath, logger)
	if err != nil {
		log.Fatal(err)
	}
	// The flight recorder is always on: rings are pooled and bounded, the
	// /debug endpoints work without -trace, and with -trace it enforces the
	// sampling policy instead of streaming every flow.
	rec := blindbox.NewRecorder(blindbox.RecorderConfig{
		Events:  *recorderEvents,
		Sample:  *traceSample,
		Sink:    trace,
		Metrics: reg,
	})

	mb, err := blindbox.NewMiddlebox(middlebox.Config{
		Ruleset:     signed,
		RGPublicKey: pub,
		Secondary:   *secondary,
		Metrics:     reg,
		Recorder:    rec,
		Logger:      logger,
		Policy:      pol,
		Timeouts: middlebox.Timeouts{
			Handshake: *tmoHandshake, Prep: *tmoPrep, Idle: *tmoIdle,
			Write: *tmoWrite, Barrier: *tmoBarrier,
		},
		DialRetry: retry.Policy{Attempts: *dialRetries},
		OnAlert: func(a blindbox.Alert) {
			switch {
			case a.Secondary:
				logger.Warn("alert", "conn", a.ConnID, "dir", a.Direction, "secondary", true, "sids", a.SecondarySIDs)
			case a.Event.Kind == blindbox.RuleMatch:
				logger.Warn("alert", "conn", a.ConnID, "dir", a.Direction,
					"sid", a.Event.Rule.SID, "msg", a.Event.Rule.Msg,
					"offset", a.Event.Offset, "action", a.Event.Rule.Action.String())
			}
		},
	})
	if err != nil {
		log.Fatalf("middlebox: %v", err)
	}

	if *admin != "" {
		mux := obs.AdminMux(reg)
		rec.Mount(mux)
		aln, err := obs.ServeAdminMux(*admin, mux, logger)
		if err != nil {
			log.Fatalf("admin endpoint: %v", err)
		}
		defer aln.Close()
		fmt.Printf("bbmb: admin endpoint on http://%s/metrics (pprof under /debug/pprof/, flight recorder on /debug/flows)\n", aln.Addr())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	// Serve only returns on listener failure, and log.Fatal skips deferred
	// cleanup — drain in-flight detection and the span buffer on SIGINT/TERM.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigC
		logger.Info("shutting down", "signal", sig.String())
		_ = ln.Close()
		if err := mb.Close(); err != nil {
			logger.Error("draining middlebox", "err", err)
		}
		flushTrace()
		os.Exit(0)
	}()
	p1, p2, _ := signed.Ruleset.ProtocolBreakdown()
	fmt.Printf("bbmb: %d rules (%.0f%% protocol I, %.0f%% <= II), listening on %s, forwarding to %s, policy %s\n",
		len(signed.Ruleset.Rules), p1*100, p2*100, ln.Addr(), *forward, pol)
	err = mb.Serve(ln, *forward)
	flushTrace()
	log.Fatal(err)
}
