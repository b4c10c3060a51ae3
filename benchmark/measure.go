package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far. All three parties
// run in this process, so a delta over a timed region is the whole
// system's CPU bill for it — GC and scheduler included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUTime is the runtime's estimate of the CPU time the garbage
// collector has used so far, updated at the end of each GC cycle.
func gcCPUTime() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

// liveHeap forces a collection and returns the bytes still reachable and
// the cumulative malloc count.
func liveHeap() (heapAlloc, mallocs uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.Mallocs
}

// mallocCount reads the cumulative malloc count without forcing a GC.
func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// allocsPer runs f n times and returns heap allocations per call.
func allocsPer(n int, f func()) float64 {
	f() // warm pools and lazily grown buffers
	before := mallocCount()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(mallocCount()-before) / float64(n)
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank method. xs must be sorted ascending; of no samples it is 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentiles are the candidates highestPercentile chooses from, with
// the share of samples beyond each in thousandths.
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// highestPercentile returns the highest of the candidate percentiles that
// still has at least ten samples beyond it (choosing-metrics §1), or 50
// when even p75 is not supported by n samples.
func highestPercentile(n int) float64 {
	for _, t := range tailPercentiles {
		if n*t.beyond >= 10*1000 {
			return t.p
		}
	}
	return 50
}

// best returns the largest of xs when better is "higher", else the smallest.
func best(xs []float64, better string) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if better == "higher" {
		return s[len(s)-1]
	}
	return s[0]
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the default
// exclusive method), which is what the acceptance check of a run set uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
