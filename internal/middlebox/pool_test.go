package middlebox

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/rules"
	"repro/internal/transport"
)

// TestOnAlertConcurrentCallbackSafety pins the documented OnAlert contract:
// callbacks may fire concurrently across connections (the callback below is
// intentionally exercised under the race detector in CI), but within one
// connection direction alerts arrive in stream order. The keyword appears
// several times per payload, so each flow produces an ordered event
// sequence to check.
func TestOnAlertConcurrentCallbackSafety(t *testing.T) {
	type flowKey struct {
		conn uint64
		dir  Direction
	}
	var (
		mu       sync.Mutex
		offsets  = map[flowKey][]int{}
		inflight atomic.Int64
		maxSeen  atomic.Int64
	)
	h := newHarnessWithAlert(t,
		`alert tcp any any -> any any (msg:"kw"; content:"attackkw"; sid:7;)`,
		func(a Alert) {
			n := inflight.Add(1)
			for {
				old := maxSeen.Load()
				if n <= old || maxSeen.CompareAndSwap(old, n) {
					break
				}
			}
			if a.Event.Kind == detect.KeywordMatch {
				mu.Lock()
				k := flowKey{a.ConnID, a.Direction}
				offsets[k] = append(offsets[k], a.Event.Offset)
				mu.Unlock()
			}
			inflight.Add(-1)
		})

	payload := []byte("first attackkw then more text attackkw and attackkw again plus attackkw end")
	const sessions = 6
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := transport.Dial(h.mbAddr, transport.ConnConfig{
				Core: core.DefaultConfig(), RG: transport.RGMaterial{TagKey: h.tagKey},
			})
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			if _, err := conn.Write(payload); err != nil {
				errs <- err
				return
			}
			if err := conn.CloseWrite(); err != nil {
				errs <- err
				return
			}
			if _, err := io.ReadAll(conn); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Drain the shards so every queued alert has been delivered.
	if err := h.mb.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	c2s := 0
	for k, offs := range offsets {
		for i := 1; i < len(offs); i++ {
			if offs[i] < offs[i-1] {
				t.Fatalf("flow %v: alert offsets out of stream order: %v", k, offs)
			}
		}
		if k.dir == ClientToServer {
			c2s++
			if len(offs) != 4 {
				t.Fatalf("flow %v: %d keyword alerts, want 4 (offsets %v)", k, len(offs), offs)
			}
		}
	}
	if c2s != sessions {
		t.Fatalf("client-to-server alert flows = %d, want %d", c2s, sessions)
	}
}

// TestCloseDrainsAndRejectsNewConns checks the graceful-drain contract:
// Close returns only after queued detection work is flushed, and later
// connections are refused.
func TestCloseDrainsAndRejectsNewConns(t *testing.T) {
	h := newHarness(t, `alert tcp any any -> any any (msg:"kw"; content:"attackkw"; sid:7;)`, false)
	conn := h.dial(t, core.DefaultConfig())
	if _, err := conn.Write([]byte("carrying attackkw onward")); err != nil {
		t.Fatal(err)
	}
	conn.CloseWrite()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatal(err)
	}
	if err := h.mb.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close every alert of the finished session must be visible —
	// no waitFor polling needed.
	found := false
	for _, a := range h.snapshot() {
		if a.Event.Kind == detect.RuleMatch && a.Event.Rule.SID == 7 {
			found = true
		}
	}
	if !found {
		t.Fatal("alert lost across Close drain")
	}
	if err := h.mb.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// New connections are refused (the proxy leg errors out quickly).
	c2, s2 := net.Pipe()
	defer c2.Close()
	defer s2.Close()
	done := make(chan error, 1)
	go func() { done <- h.mb.Interpose(c2, s2) }()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("Interpose after Close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Interpose did not return after Close")
	}
}

// TestShardIndexPinsFlows sanity-checks the pinning function: stable per
// flow, spread across shards, directions of one connection separated when
// more than one shard exists.
func TestShardIndexPinsFlows(t *testing.T) {
	p := &detectPool{chans: make([]chan detectJob, 4)}
	for id := uint64(1); id < 100; id++ {
		a := p.shardIndex(id, ClientToServer)
		if a != p.shardIndex(id, ClientToServer) {
			t.Fatal("shard pinning is not stable")
		}
		b := p.shardIndex(id, ServerToClient)
		if a == b {
			t.Fatalf("conn %d: both directions pinned to shard %d", id, a)
		}
		if a < 0 || a >= 4 || b < 0 || b >= 4 {
			t.Fatalf("shard out of range: %d/%d", a, b)
		}
	}
}

// newPoolFlow builds a middlebox on a one-rule ruleset ("attackkw", sid 7,
// with the given action: "alert" or "drop") with the given OnAlert, and one
// client-to-server flow on it without sockets. It also returns two token
// batches of that flow's stream, as its sender would have encrypted them:
// hit carries the keyword, miss does not.
func newPoolFlow(t *testing.T, action string, onAlert func(Alert)) (mb *Middlebox, fl *flow, hit, miss []dpienc.EncryptedToken) {
	t.Helper()
	g, err := rules.NewGenerator("PoolRG")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rules.Parse("pool", action+` tcp any any -> any any (msg:"kw"; content:"attackkw"; sid:7;)`)
	if err != nil {
		t.Fatal(err)
	}
	mb, err = New(Config{Ruleset: g.Sign(rs), OnAlert: onAlert})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mb.Close() })
	cfg := core.DefaultConfig()
	keys := bbcrypto.DeriveSessionKeys([]byte("pool test"))
	fl = mb.newFlow(1, ClientToServer, cfg, core.DirectTokenKeys(keys.K, rs, cfg.Mode), func() {})
	pipe := core.NewSenderPipeline(keys, cfg)
	hit, _ = pipe.ProcessText([]byte("a request carrying attackkw onward, "))
	miss, _ = pipe.ProcessText([]byte("and then plain words travelling through, "))
	if len(hit) == 0 || len(miss) == 0 {
		t.Fatal("empty token batch")
	}
	return mb, fl, hit, miss
}

// TestSubmitBlocksOnFullQueue pins the back-pressure policy: with a shard
// stalled in OnAlert and its queue full, the next submit blocks, the
// barrier stays shut, and releasing the shard drains every queued batch.
func TestSubmitBlocksOnFullQueue(t *testing.T) {
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	var alerts atomic.Int64
	mb, fl, hit, miss := newPoolFlow(t, "alert", func(Alert) {
		entered <- struct{}{}
		<-gate
		alerts.Add(1)
	})
	p := newDetectPool(mb, 1, 1)
	fl.shard = p.shardIndex(fl.id, fl.dir)

	fl.enqueue(p, detectJob{fl: fl, toks: hit})
	<-entered                                    // the worker holds the hit batch, stalled
	fl.enqueue(p, detectJob{fl: fl, toks: miss}) // fills the one-batch queue
	submitted := make(chan struct{})
	go func() {
		fl.enqueue(p, detectJob{fl: fl, toks: miss})
		close(submitted)
	}()
	select {
	case <-submitted:
		t.Fatal("submit returned while the shard's queue was full")
	case <-time.After(50 * time.Millisecond):
	}
	if fl.waitTimeout(10 * time.Millisecond) {
		t.Fatal("detection barrier cleared with a stalled batch in flight")
	}

	close(gate)
	<-submitted
	if !fl.waitTimeout(0) {
		t.Fatal("unbounded barrier wait returned false")
	}
	if n := fl.inflight.Load(); n != 0 {
		t.Fatalf("%d jobs in flight after the barrier cleared", n)
	}
	p.close()
	if alerts.Load() == 0 {
		t.Fatal("the hit batch raised no alert")
	}
}

// TestBarrierAllocatesNothing pins the per-record cost of the detection
// barrier: once the flow's timer exists, queueing a batch and waiting for
// it allocates nothing — no goroutine, channel or timer per wait.
func TestBarrierAllocatesNothing(t *testing.T) {
	mb, fl, _, miss := newPoolFlow(t, "alert", nil)
	roundTrip := func() {
		fl.enqueue(mb.pool, detectJob{fl: fl, toks: miss})
		if !fl.waitTimeout(time.Minute) {
			t.Fatal("barrier timed out")
		}
	}
	// The first wait that has to block creates the timer.
	for fl.timer == nil {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("enqueue + barrier wait: %v allocs, want 0", allocs)
	}
}

// newHarnessWithAlert is newHarness with a custom OnAlert callback.
func newHarnessWithAlert(t *testing.T, rulesText string, onAlert func(Alert)) *harness {
	t.Helper()
	return newHarnessConfigured(t, rulesText, func(cfg *Config) { cfg.OnAlert = onAlert })
}
