package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	blindbox "repro"
	"repro/internal/middlebox"
)

// side plays one end of a scripted connection.
type side struct {
	conn   *blindbox.Conn
	client bool
	buf    []byte

	writes  int64     // application writes made
	sent    int64     // payload bytes written
	recv    int64     // payload bytes received and checked
	opLatUS []float64 // client: latency of each completed operation
	opStart time.Time // zero: no operation open
	firstIn time.Time // when the first incoming byte arrived
}

func newSide(conn *blindbox.Conn, client bool) *side {
	return &side{conn: conn, client: client, buf: make([]byte, 64<<10)}
}

// play sends this side's writes of script and checks that exactly the
// peer's writes arrive, byte for byte. skip is how many bytes of the first
// incoming entry the caller already consumed (the server reads the stream
// tag first). A client's operation runs from its first write after the
// previous operation (or from a preset opStart) to the arrival of the
// entry marked opEnd.
func (s *side) play(script []appWrite, skip int) error {
	for i := range script {
		w := &script[i]
		if w.s2c != s.client { // ours to send
			if s.client && s.opStart.IsZero() {
				s.opStart = time.Now()
			}
			var err error
			if w.binary {
				_, err = s.conn.WriteBinary(w.data)
			} else {
				_, err = s.conn.Write(w.data)
			}
			if err != nil {
				return fmt.Errorf("write: %w", err)
			}
			s.writes++
			s.sent += int64(len(w.data))
			continue
		}
		want := w.data[skip:]
		skip = 0
		for len(want) > 0 {
			lim := len(want)
			if lim > len(s.buf) {
				lim = len(s.buf)
			}
			n, err := s.conn.Read(s.buf[:lim])
			if n > 0 {
				if s.firstIn.IsZero() {
					s.firstIn = time.Now()
				}
				if !bytes.Equal(s.buf[:n], want[:n]) {
					return errMismatch
				}
				want = want[n:]
				s.recv += int64(n)
			}
			if err != nil && len(want) > 0 {
				return fmt.Errorf("read: %w", err)
			}
		}
		if w.opEnd && s.client {
			s.opLatUS = append(s.opLatUS, float64(time.Since(s.opStart))/1e3)
			s.opStart = time.Time{}
		}
	}
	return nil
}

// expectEOF checks that the peer ends the stream cleanly with nothing
// more to say.
func (s *side) expectEOF() error {
	n, err := s.conn.Read(s.buf)
	if n != 0 || !errors.Is(err, io.EOF) {
		return fmt.Errorf("expected end of stream, got %d bytes, err %v", n, err)
	}
	return nil
}

// finish is the client's orderly shutdown: end-of-stream, wait for the
// server's, close. Ordered this way every trailing token record crosses
// the middlebox before either leg is severed, so its counters are exact.
func (s *side) finish() error {
	if err := s.conn.CloseWrite(); err != nil {
		return err
	}
	if err := s.expectEOF(); err != nil {
		return err
	}
	return s.conn.Close()
}

// round is what one fixed-work round measured.
type round struct {
	setup, setupDial time.Duration
	wall, cpu, gcCPU time.Duration
	delivered        int64 // payload bytes handed to receiving applications, both directions
	clientPayload    int64 // payload bytes client applications wrote
	clientWire       int64 // bytes clients wrote to their sockets
	clientSockWrites int64
	clientWrites     int64 // application Write calls, clients only
	appWrites        int64 // application Write calls, both endpoints
	mallocs          uint64
	heapStart        uint64
	heapEnd          uint64
	opLatUS          []float64
	ttfbMS           []float64 // perFlow: dial start to first response byte
	dialMS           []float64 // perFlow: dial alone
	attempted        int64     // scripted writes, each checked on delivery, plus dials
	failed           int64
	failures         []string
	sinks            *traceSinks // the round's spans, when it ran traced
	stats            middlebox.Stats
	primaryAlerts    int64
	dials            int64 // client connections dialled
	dialWire         int64 // bytes the clients wrote during those dials: hello and rule preparation
	shards           int
	newMB            time.Duration
}

func (r *round) failf(format string, a ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, a...))
	}
}

// timedRegion brackets the measured part of a round.
type timedRegion struct {
	t0      time.Time
	cpu0    time.Duration
	gc0     time.Duration
	mallocs uint64
}

func (r *round) begin() timedRegion {
	var tr timedRegion
	r.heapStart, tr.mallocs = liveHeap()
	tr.gc0 = gcCPUTime()
	tr.cpu0 = cpuTime()
	tr.t0 = time.Now()
	return tr
}

func (r *round) end(tr timedRegion) {
	r.wall = time.Since(tr.t0)
	r.cpu = cpuTime() - tr.cpu0
	r.gcCPU = gcCPUTime() - tr.gc0 // GC cycles completed inside the region
	r.mallocs = mallocCount() - tr.mallocs
	r.heapEnd, _ = liveHeap()
}

// tally folds what the sides of the timed region did into r.
type tally struct {
	mu sync.Mutex
	r  *round
}

func (t *tally) add(s *side) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.r.appWrites += s.writes
	t.r.delivered += s.recv
	if s.client {
		t.r.clientWrites += s.writes
		t.r.clientPayload += s.sent
		t.r.opLatUS = append(t.r.opLatUS, s.opLatUS...)
	}
}

// serveScript is the server side of one connection: find the script by
// its stream tag, play it, expect a clean end. between runs after the
// first upTo entries (the warm-up) and may reset the side's tallies.
func serveScript(conn *blindbox.Conn, scripts [][]appWrite, upTo int, between func(*side, error)) (*side, error) {
	s := newSide(conn, false)
	i, err := readStreamTag(conn, s.buf)
	if err == nil && (i < 0 || i >= len(scripts)) {
		err = fmt.Errorf("unknown stream %d", i)
	}
	skip := streamTagLen
	if err == nil && upTo > 0 {
		err = s.play(scripts[i][:upTo], skip)
		skip = 0
	}
	if between != nil {
		between(s, err)
	}
	if err != nil {
		return s, err
	}
	if err := s.play(scripts[i][upTo:], skip); err != nil {
		return s, err
	}
	return s, s.expectEOF()
}

// runRound performs one round of p: set-up (deployment, dials with rule
// preparation, warm-up), then the plan's fixed work inside the timed
// region, then an orderly teardown. direct omits the middlebox; tr
// installs trace sinks.
func runRound(st stack, p *plan, direct bool, tr *traceSinks) (*round, error) {
	if p.perFlow {
		return runFlowRound(st, p, direct, tr)
	}
	r := &round{sinks: tr}
	tl := &tally{r: r}
	setupStart := time.Now()
	n := len(p.scripts)
	for _, sc := range p.scripts {
		r.attempted += int64(len(sc) - p.warmEnd)
	}

	// Both ends of every connection report here when warm-up is through,
	// whether it succeeded or not, so the round cannot hang on a failure.
	warm := make(chan struct{}, 2*n)
	d, err := deploy(st, direct, tr, func(conn *blindbox.Conn) error {
		s, err := serveScript(conn, p.scripts, p.warmEnd, func(s *side, _ error) {
			warm <- struct{}{}
			s.writes, s.recv = 0, 0
		})
		tl.add(s)
		return err
	})
	if err != nil {
		return nil, err
	}

	sides := make([]*side, n)
	socks := make([]*countingConn, n)
	errs := make([]error, n)
	dialStart := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, cc, err := d.dial()
			if err != nil {
				errs[i] = fmt.Errorf("dial: %w", err)
				return
			}
			sides[i], socks[i] = newSide(conn, true), cc
			atomic.AddInt64(&r.dialWire, cc.wireLen.Load())
			atomic.AddInt64(&r.dials, 1)
		}(i)
	}
	wg.Wait()
	r.setupDial = time.Since(dialStart)
	if err := errors.Join(errs...); err != nil {
		d.close()
		return nil, err
	}

	start, release := make(chan struct{}), make(chan struct{})
	var timed sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		timed.Add(1)
		go func(i int) {
			defer wg.Done()
			s := sides[i]
			err := s.play(p.scripts[i][:p.warmEnd], 0)
			warm <- struct{}{}
			<-start
			if err == nil {
				s.opLatUS, s.writes, s.sent, s.recv = s.opLatUS[:0], 0, 0, 0
				err = s.play(p.scripts[i][p.warmEnd:], 0)
			}
			timed.Done()
			<-release
			if err == nil {
				err = s.finish()
			} else {
				_ = s.conn.Close()
			}
			errs[i] = err
		}(i)
	}
	for i := 0; i < 2*n; i++ {
		<-warm
	}
	wire0, sock0 := make([]int64, n), make([]int64, n)
	for i, cc := range socks {
		wire0[i], sock0[i] = cc.wireLen.Load(), cc.sockWrites.Load()
	}
	r.setup = time.Since(setupStart)

	region := r.begin()
	close(start)
	timed.Wait()
	r.end(region)
	for i, cc := range socks {
		r.clientWire += cc.wireLen.Load() - wire0[i]
		r.clientSockWrites += cc.sockWrites.Load() - sock0[i]
	}
	close(release)
	wg.Wait()
	for _, s := range sides {
		tl.add(s)
	}
	r.finish(d, errs)
	return r, nil
}

// finish closes the deployment, which waits for the server sides and for
// the middlebox to drain, and records its final counters and failures.
func (r *round) finish(d *deployment, clientErrs []error) {
	if d.mb != nil {
		r.shards = d.mb.DetectShards()
	}
	for _, err := range d.close() {
		r.failf("%v", err)
	}
	for _, err := range clientErrs {
		if err != nil {
			r.failf("client: %v", err)
		}
	}
	r.newMB = d.newMB
	if d.mb != nil {
		r.stats = d.mb.Stats()
		r.primaryAlerts = d.notified.Load()
	}
}

// runFlowRound is runRound for connection-per-request plans: set-up is the
// deployment plus one warm-up flow; the timed region is every client
// running its share of the flows back to back.
func runFlowRound(st stack, p *plan, direct bool, tr *traceSinks) (*round, error) {
	r := &round{sinks: tr}
	tl := &tally{r: r}
	setupStart := time.Now()
	flows := len(p.scripts) - 1
	clients := clientCount()
	per := flows / clients
	for _, sc := range p.scripts[:flows] {
		r.attempted += int64(len(sc) + 1) // the writes and the dial
	}

	var armed atomic.Bool
	d, err := deploy(st, direct, tr, func(conn *blindbox.Conn) error {
		timed := armed.Load()
		s, err := serveScript(conn, p.scripts, 0, nil)
		if timed {
			s.recv += streamTagLen // serveScript read the tag outside play
			tl.add(s)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	// flow runs script i as one whole connection: dial (hello and rule
	// preparation), request, response, orderly close. Its latency runs
	// from dial start to the last response byte.
	flow := func(i int) (s *side, cc *countingConn, dialed, ttfb time.Duration, err error) {
		t0 := time.Now()
		conn, cc, err := d.dial()
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("dial: %w", err)
		}
		dialed = time.Since(t0)
		atomic.AddInt64(&r.dialWire, cc.wireLen.Load())
		atomic.AddInt64(&r.dials, 1)
		s = newSide(conn, true)
		s.opStart = t0
		if err := s.play(p.scripts[i], 0); err != nil {
			_ = conn.Close()
			return s, cc, dialed, 0, err
		}
		return s, cc, dialed, s.firstIn.Sub(t0), s.finish()
	}

	_, _, dialed, _, err := flow(flows)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up flow: %w", err)
	}
	r.setupDial = dialed
	r.setup = time.Since(setupStart)

	region := r.begin()
	armed.Store(true)
	var wg sync.WaitGroup
	errs := make([]error, flows)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c * per; i < (c+1)*per; i++ {
				s, cc, dialed, ttfb, err := flow(i)
				errs[i] = err
				if s == nil {
					continue
				}
				tl.add(s)
				tl.mu.Lock()
				r.clientWire += cc.wireLen.Load()
				r.clientSockWrites += cc.sockWrites.Load()
				r.dialMS = append(r.dialMS, float64(dialed)/1e6)
				r.ttfbMS = append(r.ttfbMS, float64(ttfb)/1e6)
				tl.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	r.end(region)
	r.finish(d, errs)
	return r, nil
}
