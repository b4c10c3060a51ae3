// Command bbserver is a BlindBox HTTPS server: it accepts connections
// (typically proxied through a bbmb middlebox) and serves either an echo
// of the request or a synthetic page body.
//
// Usage:
//
//	bbserver -listen :9443 -rgconfig blindbox.endpoint.json [-mode echo|page] [-bytes 65536]
//	         [-admin :8082] [-trace spans.jsonl] [-trace-sample 0.01] [-recorder-events 256]
//
// With -admin, the server exposes its flight recorder's counters (flows by
// disposition, ring evictions) on /metrics plus net/http/pprof under
// /debug/pprof/ and the recorder's flow tables on /debug/flows and
// /debug/flightrecorder?flow=N.
// With -trace, the server appends its pipeline spans (conn, handshake,
// prep.garble, tokenize, encrypt) to the given JSONL file, joining the
// distributed trace the client or middlebox propagates in the handshake —
// assemble the parties' files with `bbtrace -assemble` (DESIGN.md §8).
// The head-sampling decision arrives on the hello with the trace context;
// for flows without one, -trace-sample decides locally. Flows that end in
// an interesting state (alert, timeout, error) always flush their last
// -recorder-events spans. SIGINT/SIGTERM flush the span buffer before exit.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"

	blindbox "repro"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/rgconfig"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9443", "listen address")
	rgPath := flag.String("rgconfig", "", "endpoint RG configuration from bbrulegen (required)")
	mode := flag.String("mode", "echo", "echo: return the request; page: return a synthetic page")
	pageBytes := flag.Int("bytes", 64<<10, "synthetic page size for -mode page")
	admin := flag.String("admin", "", "serve /metrics, /metrics.json and /debug/pprof on this address")
	tracePath := flag.String("trace", "", "append per-flow JSONL spans to this file")
	traceSample := flag.Float64("trace-sample", 1, "head-sampling rate for flows without a wire decision (interesting flows always flush)")
	recorderEvents := flag.Int("recorder-events", obs.DefaultRecorderEvents, "per-flow flight-recorder ring capacity in spans")
	flag.Parse()
	if *rgPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	rg, err := rgconfig.LoadEndpoint(*rgPath)
	if err != nil {
		log.Fatalf("loading RG config: %v", err)
	}
	cfg := blindbox.ConnConfig{Core: blindbox.DefaultConfig(), RG: rg}
	trace, flushTrace, err := obs.OpenTraceFile(*tracePath, slog.Default())
	if err != nil {
		log.Fatal(err)
	}
	// The flight recorder is always on: rings are pooled and bounded, the
	// /debug endpoints work without -trace, and with -trace it enforces the
	// sampling policy instead of streaming every flow.
	reg := obs.NewRegistry()
	cfg.Recorder = blindbox.NewRecorder(blindbox.RecorderConfig{
		Events:  *recorderEvents,
		Sample:  *traceSample,
		Sink:    trace,
		Metrics: reg,
	})

	if *admin != "" {
		mux := obs.AdminMux(reg)
		cfg.Recorder.Mount(mux)
		aln, err := obs.ServeAdminMux(*admin, mux, obs.NewLogger(os.Stderr, slog.LevelInfo))
		if err != nil {
			log.Fatalf("admin endpoint: %v", err)
		}
		defer aln.Close()
		fmt.Printf("bbserver: admin endpoint on http://%s/metrics (flight recorder on /debug/flows)\n", aln.Addr())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	// log.Fatal skips deferred cleanup — flush the span buffer on
	// SIGINT/SIGTERM so short demo sessions keep their final spans.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigC
		log.Printf("shutting down on %s", sig)
		_ = ln.Close()
		flushTrace()
		os.Exit(0)
	}()
	fmt.Printf("bbserver (%s) listening on %s\n", *mode, ln.Addr())
	for {
		raw, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		go handle(raw, cfg, *mode, *pageBytes)
	}
}

func handle(raw net.Conn, cfg blindbox.ConnConfig, mode string, pageBytes int) {
	conn, err := blindbox.Server(raw, cfg)
	if err != nil {
		_ = raw.Close()
		log.Printf("handshake: %v", err)
		return
	}
	defer conn.Close()
	req, err := io.ReadAll(conn)
	if err != nil {
		log.Printf("read: %v", err)
		return
	}
	log.Printf("request: %d bytes (mb on path: %v)", len(req), conn.MBPresent())
	var werr error
	switch mode {
	case "page":
		body := corpus.SynthesizeTextSeeded(int64(len(req)), pageBytes)
		header := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n", len(body))
		if _, werr = conn.Write([]byte(header)); werr == nil {
			_, werr = conn.Write(body)
		}
	default:
		_, werr = conn.Write(req)
	}
	if werr != nil {
		log.Printf("write: %v", werr)
		return
	}
	if err := conn.CloseWrite(); err != nil {
		log.Printf("close: %v", err)
	}
}
