// Command bbclient opens a BlindBox HTTPS connection (through a bbmb
// middlebox or directly to a bbserver), sends a request, and prints the
// response, timing the handshake (which includes rule preparation when a
// middlebox is on path) and the transfer separately — the two cost
// components the paper's §7.2.2 separates.
//
// Usage:
//
//	bbclient -addr 127.0.0.1:8443 -rgconfig blindbox.endpoint.json [-data "GET / ..."] [-protocol 2] [-tokens delimiter]
//	         [-timeout 30s] [-retries 3] [-trace spans.jsonl] [-trace-sample 1] [-recorder-events 256]
//
// -timeout bounds the dial and the whole handshake (including rule
// preparation when a middlebox is on path); 0 selects the 30s default and
// a negative value disables the deadline. -retries bounds how many times
// the dial+handshake is attempted with jittered backoff before giving up
// with a typed *retry.Error.
//
// With -trace, the client appends its pipeline spans (conn, handshake,
// prep.garble, tokenize, encrypt) to the given JSONL file and roots a
// distributed trace that the middlebox and server join over the wire —
// assemble the three files with `bbtrace -assemble` (DESIGN.md §8).
// -trace-sample below 1 engages the flight recorder: that fraction of
// flows streams every span (the head-sampling decision rides the hello so
// all parties agree), the rest buffer their last -recorder-events spans
// and flush them only when the flow ends in an interesting state (alert,
// timeout, error).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	blindbox "repro"
	"repro/internal/obs"
	"repro/internal/rgconfig"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8443", "middlebox or server address")
	rgPath := flag.String("rgconfig", "", "endpoint RG configuration from bbrulegen (required)")
	data := flag.String("data", "GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n", "request payload")
	protocol := flag.Int("protocol", 2, "BlindBox protocol: 1, 2 or 3")
	tokens := flag.String("tokens", "delimiter", "tokenization: window or delimiter")
	timeout := flag.Duration("timeout", 0, "dial + handshake deadline (0 = default 30s, negative disables)")
	retries := flag.Int("retries", 0, "dial attempts with backoff (0 = default 3)")
	tracePath := flag.String("trace", "", "append per-flow JSONL spans to this file")
	traceSample := flag.Float64("trace-sample", 1, "head-sampling rate: fraction of flows that stream every span (interesting flows always flush)")
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
	sink, flushTrace, err := obs.OpenTraceFile(*tracePath, slog.Default())
	if err != nil {
		log.Fatal(err)
	}
	if sink != nil {
		// An interrupt flushes what the one-second drain has not.
		sigC := make(chan os.Signal, 1)
		signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigC
			flushTrace()
			os.Exit(1)
		}()
		// The recorder enforces -trace-sample: at the default rate of 1
		// every flow streams (legacy behavior); below 1 only sampled and
		// interesting flows reach the span file.
		cfg.Recorder = blindbox.NewRecorder(blindbox.RecorderConfig{
			Events: *recorderEvents,
			Sample: *traceSample,
			Sink:   sink,
		})
	}
	cfg.Timeouts.Handshake = *timeout
	cfg.DialRetry.Attempts = *retries
	cfg.Core.Protocol = blindbox.Protocol(*protocol)
	switch *tokens {
	case "window":
		cfg.Core.Mode = blindbox.WindowTokens
	case "delimiter":
		cfg.Core.Mode = blindbox.DelimiterTokens
	default:
		log.Fatalf("unknown tokenization %q", *tokens)
	}

	start := time.Now()
	conn, err := blindbox.Dial(*addr, cfg)
	if err != nil {
		flushTrace()
		log.Fatalf("dial: %v", err)
	}
	// die closes the connection (emitting its conn span) and drains the
	// trace buffer before exiting, so failed runs still leave usable spans.
	die := func(format string, args ...any) {
		_ = conn.Close()
		flushTrace()
		log.Fatalf(format, args...)
	}
	handshake := time.Since(start)
	fmt.Printf("handshake: %v (middlebox on path: %v)\n", handshake, conn.MBPresent())

	start = time.Now()
	if _, err := conn.Write([]byte(*data)); err != nil {
		die("write: %v", err)
	}
	if err := conn.CloseWrite(); err != nil {
		die("close-write: %v", err)
	}
	resp, err := io.ReadAll(conn)
	if err != nil {
		die("read: %v", err)
	}
	fmt.Printf("transfer: %v, response %d bytes\n", time.Since(start), len(resp))
	if len(resp) < 512 {
		fmt.Printf("response: %q\n", resp)
	}
	_ = conn.Close()
	flushTrace()
}
