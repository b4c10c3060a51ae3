// Package experiments implements the paper's evaluation (§7): one function
// per table or figure, each returning structured results and able to print
// the same rows/series the paper reports. cmd/blindbench is the CLI front
// end; the repository-root benchmarks reuse the same code under testing.B.
//
// Absolute numbers differ from the paper's testbed (DPDK/Click on Xeon
// cores vs a Go process); the reproduced quantities are the comparisons:
// who wins, by roughly what factor, and where the regime changes.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Seed fixes all synthetic workload generation, making every experiment
// reproducible run-to-run.
const Seed = 20150817 // SIGCOMM'15 opening day

func fmtDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	case d < time.Minute:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.1fmin", d.Minutes())
	}
}

func fmtBytes(n int) string {
	switch {
	case n < 1<<10:
		return fmt.Sprintf("%dB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	}
}

// median returns the median of a slice (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// timeOp measures the per-op latency of f by running it in a loop sized to
// take at least minDuration.
func timeOp(minDuration time.Duration, f func()) time.Duration {
	return timeOpOn(time.Now, minDuration, f)
}

// timeOpOn is timeOp reading the clock through now, so a test can script it.
func timeOpOn(now func() time.Time, minDuration time.Duration, f func()) time.Duration {
	// Warm up and estimate.
	f()
	n := 1
	for {
		start := now()
		for i := 0; i < n; i++ {
			f()
		}
		elapsed := now().Sub(start)
		if elapsed >= minDuration || n >= 1<<24 {
			return elapsed / time.Duration(n)
		}
		if elapsed <= 0 {
			elapsed = time.Nanosecond
		}
		scale := int(minDuration/elapsed) + 1
		if scale > 100 {
			scale = 100
		}
		n *= scale
	}
}

// bestTimeOp is the smallest of n timeOp samples. On a shared host a sample is
// the operation's cost plus whatever else ran meanwhile, so the minimum is
// the one nearest the cost; cells that a test compares with each other are
// taken this way.
func bestTimeOp(n int, minDuration time.Duration, f func()) time.Duration {
	best := timeOp(minDuration, f)
	for i := 1; i < n; i++ {
		best = min(best, timeOp(minDuration, f))
	}
	return best
}

// table writes aligned rows.
type table struct {
	w    io.Writer
	rows [][]string
}

func newTable(w io.Writer) *table { return &table{w: w} }

func (t *table) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) flush() {
	widths := map[int]int{}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, r := range t.rows {
		for i, c := range r {
			pad := widths[i] - len(c)
			if i == 0 {
				fmt.Fprintf(t.w, "%s%*s", c, pad, "")
			} else {
				fmt.Fprintf(t.w, "  %*s", widths[i], c)
			}
		}
		fmt.Fprintln(t.w)
	}
	t.rows = nil
}
