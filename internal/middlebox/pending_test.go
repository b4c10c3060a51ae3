package middlebox

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestPendingRingMatchesModel drives the ring with records of random
// sizes, large enough to wrap it many times, and holds it to a FIFO of
// records that drops its oldest until the next one fits the budget.
func TestPendingRingMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var (
		r     pendingRing
		model [][]byte
		used  int
		dst   []byte
	)
	for i := 0; i < 2000; i++ {
		if len(model) > 0 && rng.Intn(4) == 0 {
			dst = r.pop(dst)
			if !bytes.Equal(dst, model[0]) {
				t.Fatalf("step %d: popped %d bytes, want record of %d", i, len(dst), len(model[0]))
			}
			used -= lenPrefix + len(model[0])
			model = model[1:]
			continue
		}
		rec := make([]byte, rng.Intn(200<<10))
		rng.Read(rec)
		for !r.fits(len(rec)) {
			if n := r.dropOldest(); n != len(model[0]) {
				t.Fatalf("step %d: dropped a record of %d bytes, want %d", i, n, len(model[0]))
			}
			used -= lenPrefix + len(model[0])
			model = model[1:]
		}
		r.push(rec)
		model = append(model, rec)
		used += lenPrefix + len(rec)
		if r.used != used || len(r.buf) > maxPendingBytes {
			t.Fatalf("step %d: ring holds %d bytes in a %d-byte buffer, want %d within %d",
				i, r.used, len(r.buf), used, maxPendingBytes)
		}
	}
	for _, want := range model {
		if dst = r.pop(dst); !bytes.Equal(dst, want) {
			t.Fatalf("drain: popped %d bytes, want record of %d", len(dst), len(want))
		}
	}
	if r.used != 0 {
		t.Fatalf("drained ring still holds %d bytes", r.used)
	}
}
