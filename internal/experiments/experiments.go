// Package experiments implements the paper's evaluation (§7): one function
// per table or figure, each returning structured results and able to print
// the same rows/series the paper reports. cmd/blindbench is the CLI front
// end. Every timed number is a Cell, one func(*testing.B) that the
// experiment runs through testing.Benchmark and the repository root's
// BenchmarkPaper runs under go test -bench.
//
// Absolute numbers differ from the paper's testbed (DPDK/Click on Xeon
// cores vs a Go process); the reproduced quantities are the comparisons:
// who wins, by roughly what factor, and where the regime changes.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"repro/internal/tokenize"
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

// A Cell is one timed number the experiments print, as one benchmark
// function: an experiment runs it through testing.Benchmark, and the root
// BenchmarkPaper runs the same function under go test -bench, so each
// number has one timing loop. -test.benchtime (1s by default) sizes it.
type Cell struct {
	Name string
	F    func(*testing.B)
}

// Cells lists every cell: Table 2's, rule preparation's, the sender CPU
// rates of Figs. 3/4 and §7.2.3, and §7.2.3's detection rates at
// DefaultThroughputOptions.
func Cells() []Cell {
	cells := append(table2Cells(), prepareCell(1), prepareCell(setupFitKeywords), garbleCell)
	cells = append(cells, cpuCells(tokenize.Delimiter)...)
	return append(cells, throughputCells(DefaultThroughputOptions())...)
}

// run times each cell through testing.Benchmark. testing.Benchmark reports
// a cell that called b.Fatal as zero iterations and drops the message, so
// that is an error naming the cell rather than a 0ns reading.
func run(cells []Cell) (map[string]testing.BenchmarkResult, error) {
	res := make(map[string]testing.BenchmarkResult, len(cells))
	for _, c := range cells {
		r := testing.Benchmark(c.F)
		if r.N == 0 {
			return nil, fmt.Errorf("cell %s failed (go test -run '^$' -bench 'Paper/%s' . prints why)", c.Name, c.Name)
		}
		res[c.Name] = r
	}
	return res, nil
}

func perOp(r testing.BenchmarkResult) time.Duration { return time.Duration(r.NsPerOp()) }

// bytesPerSec is the rate of a cell that called b.SetBytes.
func bytesPerSec(r testing.BenchmarkResult) float64 {
	return float64(r.Bytes) / perOp(r).Seconds()
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
