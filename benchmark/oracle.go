package main

import (
	"sync"

	blindbox "repro"
	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dpienc"
)

// expected is what one round of a plan must leave in the middlebox's
// counters, predicted by an offline pass of the same application writes
// through core.SenderPipeline and detect.Engine with directly computed
// token keys — no sockets, no rule preparation, no middlebox.
type expected struct {
	tokens    uint64 // Stats.TokensScanned
	alerts    uint64 // primary detection events (OnAlert deliveries)
	forwarded uint64 // Stats.BytesForwarded: data-record bodies
	conns     uint64
}

// dataRecordOverhead is what a data record's body adds to its payload:
// the kind byte and the AES-GCM tag.
const dataRecordOverhead = 1 + 16

// offlineDirection tokenizes, encrypts and scans one direction of one
// connection exactly as Conn.write and middlebox.forward would, ending
// with the flush an orderly close sends.
func offlineDirection(st stack, rs *blindbox.Ruleset, script []appWrite, s2c bool) (tokens, events uint64) {
	keys := bbcrypto.DeriveSessionKeys([]byte("benchmark offline oracle"))
	pipe := core.NewSenderPipeline(keys, st.core)
	eng := core.NewDetectEngine(rs, core.DirectTokenKeys(keys.K, rs, st.core.Mode), st.core, nil)
	var toks []dpienc.EncryptedToken
	var evs []detect.Event
	scan := func(reset *core.SaltReset) {
		if reset != nil {
			eng.Reset(reset.Salt0)
		}
		tokens += uint64(len(toks))
		evs = eng.ScanBatch(toks, evs[:0])
		events += uint64(len(evs))
	}
	for i := range script {
		w := &script[i]
		if w.s2c != s2c {
			continue
		}
		var reset *core.SaltReset
		if w.binary {
			toks, reset = pipe.ProcessBinaryInto(toks[:0], len(w.data))
		} else {
			toks, reset = pipe.ProcessTextInto(toks[:0], w.data)
		}
		scan(reset)
	}
	toks = pipe.FlushInto(toks[:0])
	scan(nil)
	return tokens, events
}

// expect runs the offline pass over every script of p, two directions each.
func expect(st stack, p *plan) (expected, error) {
	rs, err := parseRules6()
	if err != nil {
		return expected{}, err
	}
	type job struct {
		script []appWrite
		s2c    bool
	}
	var jobs []job
	exp := expected{conns: uint64(len(p.scripts))}
	for _, sc := range p.scripts {
		jobs = append(jobs, job{sc, false}, job{sc, true})
		for _, w := range sc {
			exp.forwarded += uint64(len(w.data) + dataRecordOverhead)
		}
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next = make(chan job)
	)
	for g := 0; g < clientCount(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				t, e := offlineDirection(st, rs, j.script, j.s2c)
				mu.Lock()
				exp.tokens += t
				exp.alerts += e
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return exp, nil
}

// checkRounds compares every round's middlebox counters with the offline
// prediction. Each comparison is one attempted operation; a mismatch is a
// failed one.
func checkRounds(o *runOutcome, w *spec, p *plan, rounds []*round) {
	exp, err := expect(w.stack, p)
	if err != nil {
		o.attempted++
		o.failf("offline oracle: %v", err)
		return
	}
	o.note("oracle_tokens_per_round", "count", float64(exp.tokens))
	o.note("oracle_alerts_per_round", "count", float64(exp.alerts))
	for i, r := range rounds {
		check := func(what string, got, want uint64) {
			o.attempted++
			if got != want {
				o.failf("round %d: %s = %d, offline pass says %d", i, what, got, want)
			}
		}
		check("middlebox.tokens_scanned", r.stats.TokensScanned, exp.tokens)
		check("middlebox.alerts (primary)", uint64(r.primaryAlerts), exp.alerts)
		check("middlebox.bytes_forwarded", r.stats.BytesForwarded, exp.forwarded)
		check("middlebox.connections", r.stats.Connections, exp.conns)
		check("middlebox.unscanned_bytes", r.stats.UnscannedBytes, 0)
		check("middlebox.conn_errors", r.stats.ConnErrors, 0)
		check("middlebox.fail_closed_drops+degraded+blocked", r.stats.FailClosedDrops+r.stats.Degraded+r.stats.Blocked, 0)
	}
}
