// The detection pool: the concurrency architecture of the middlebox hot
// path.
//
// The paper's middlebox runs one "detection thread" per connection
// (§6). Here every flow direction has its own forwarding goroutine, which
// stays I/O-bound and hands token *batches* to a fixed set of detection
// shards, one per GOMAXPROCS. Keeping detection off the forwarding
// goroutine is what lets it stall separately from forwarding, and so what
// gives Timeouts.Barrier and the fail-open / fail-closed Policy something
// to act on. Correctness hinges on two invariants:
//
//  1. Per-flow pinning. Every flow (connection direction) is pinned to one
//     shard for its lifetime, so its engine — whose §3.2 fragment counters
//     must see tokens in stream order for the implicit counter salts to
//     stay in sync with the sender — is only ever touched by that shard's
//     single worker goroutine. No locks exist on the hot path; engines are
//     confined, not shared. Counter-table resets (RecSalt) travel through
//     the same shard queue, keeping them ordered with the token stream.
//
//  2. Detection barrier. The forwarding goroutine waits for the flow's
//     queued batches to finish before it forwards a data or close record
//     (flow.waitTimeout). Rule actions (block) and probable-cause decisions
//     therefore observe every token that preceded the payload; token
//     records themselves are forwarded without waiting, which is what lets
//     detection of one record overlap the network read of the next.
//
// Back-pressure: shard queues are bounded channels. A flow whose shard is
// saturated blocks in submit, which stops it from reading more records —
// the TCP receive window then pushes back on the sender.
package middlebox

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/obs"
)

// shardQueueDepth is the per-shard queue bound, in batches. One batch is one
// RecTokens record (the tokens of at most one 16 KiB data record), so 64
// bounds the detection work queued on a shard to a few MB while letting a
// forwarding goroutine read ahead of a briefly busy shard.
const shardQueueDepth = 64

// detectJob is one unit of shard work: either a token batch or a
// counter-table reset, always for a single flow.
type detectJob struct {
	fl   *flow
	toks []dpienc.EncryptedToken // nil for resets
	salt uint64
	// reset distinguishes a salt reset from an empty token batch.
	reset bool
}

// detectPool runs a fixed number of shard workers, each draining its own
// bounded queue.
type detectPool struct {
	chans []chan detectJob
	// depth[i] gauges the queue occupancy of shard i (batches enqueued and
	// not yet dequeued).
	depth []*obs.Gauge
	// ids[i] is the interned Span.Shard pointer for shard i, so the
	// per-batch scan-span path never allocates one.
	ids []*int
	wg  sync.WaitGroup
}

// newDetectPool starts `shards` single-goroutine workers, each with a queue
// of `depth` batches.
func newDetectPool(mb *Middlebox, shards, depth int) *detectPool {
	p := &detectPool{
		chans: make([]chan detectJob, shards),
		depth: make([]*obs.Gauge, shards),
		ids:   make([]*int, shards),
	}
	for i := range p.chans {
		p.chans[i] = make(chan detectJob, depth)
		p.depth[i] = mb.met.shardDepth.With(strconv.Itoa(i))
		p.ids[i] = obs.ShardID(i)
		p.wg.Add(1)
		go p.worker(mb, i)
	}
	return p
}

// shardIndex pins a flow to a shard. Both directions of one connection land
// on different shards when there is more than one, so a single busy
// connection can use two cores.
func (p *detectPool) shardIndex(connID uint64, dir Direction) int {
	i := connID * 2
	if dir == ServerToClient {
		i++
	}
	return int(i % uint64(len(p.chans)))
}

// submit enqueues a job on the flow's shard. It blocks when the shard queue
// is full — that is the back-pressure policy. The flow's in-flight count
// must already be incremented (flow.enqueue does both).
func (p *detectPool) submit(job detectJob) {
	p.depth[job.fl.shard].Add(1)
	p.chans[job.fl.shard] <- job
}

// worker drains one shard. The events scratch buffer is reused across
// batches, so steady-state detection allocates only on matches that grow
// it.
func (p *detectPool) worker(mb *Middlebox, shard int) {
	defer p.wg.Done()
	var scratch []detect.Event
	for job := range p.chans[shard] {
		p.depth[shard].Add(-1)
		fl := job.fl
		if job.reset {
			fl.engine.Reset(job.salt)
		} else {
			start := time.Now()
			scratch = fl.engine.ScanBatch(job.toks, scratch[:0])
			mb.observeScan(fl, start, shard, len(job.toks))
			for _, ev := range scratch {
				mb.dispatchEvent(fl, ev)
			}
			// Before done: the barrier's waiter finds the buffer back.
			fl.recycle(job.toks)
		}
		// After the events are dispatched: a flow with nothing in flight
		// has seen every alert of every batch it queued.
		fl.done()
	}
}

// close shuts the shard queues and waits for the workers to drain every
// queued job — the graceful-drain half of Middlebox.Close.
func (p *detectPool) close() {
	for _, ch := range p.chans {
		close(ch)
	}
	p.wg.Wait()
}
