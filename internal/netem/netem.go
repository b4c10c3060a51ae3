// Package netem emulates network links for the page-load experiments of
// Figs. 3 and 4: the paper measures at 20 Mbps × 10 ms RTT ("typical end
// user") and 1 Gbps × 10 ms (where the sender becomes CPU-bound).
//
// Model is an analytic transfer-time model (bytes, link rate, RTT, and a
// measured CPU encryption rate), used by the benchmark harness so a
// page-load sweep does not take wall-clock minutes; FaultConn (faults.go)
// injects deterministic faults into a live connection.
package netem

import "time"

// Mbps converts megabits/second to bytes/second.
func Mbps(m float64) float64 { return m * 1e6 / 8 }

// Model analytically predicts transfer times over a shaped link.
type Model struct {
	// RateBytesPerSec is the link rate.
	RateBytesPerSec float64
	// RTT is the round-trip time.
	RTT time.Duration
	// CPUBytesPerSec caps the sender's effective producing rate (the
	// BlindBox tokenize+encrypt pipeline rate, or the plain TLS rate);
	// zero means unconstrained.
	CPUBytesPerSec float64
}

// TransferTime returns the time to move wireBytes of payload requiring
// cpuBytes of sender-side processing, over rounds request/response
// round trips.
//
// The sender pipelines: the effective rate is the minimum of the link rate
// and the CPU production rate — exactly the regime change the paper
// observes between 20 Mbps (link-bound, overhead ≤ 2x) and 1 Gbps
// (CPU-bound, overhead up to 16x).
func (m Model) TransferTime(wireBytes, cpuBytes int, rounds int) time.Duration {
	link := time.Duration(float64(wireBytes) / m.RateBytesPerSec * float64(time.Second))
	var cpu time.Duration
	if m.CPUBytesPerSec > 0 {
		cpu = time.Duration(float64(cpuBytes) / m.CPUBytesPerSec * float64(time.Second))
	}
	bottleneck := link
	if cpu > bottleneck {
		bottleneck = cpu
	}
	return bottleneck + time.Duration(rounds)*m.RTT
}

// Typical20Mbps is the paper's broadband-home link.
func Typical20Mbps() Model {
	return Model{RateBytesPerSec: Mbps(20), RTT: 10 * time.Millisecond}
}

// Fast1Gbps is the paper's fast-link configuration.
func Fast1Gbps() Model {
	return Model{RateBytesPerSec: Mbps(1000), RTT: 10 * time.Millisecond}
}
