package netem

import (
	"testing"
	"time"
)

func TestModelLinkBound(t *testing.T) {
	m := Typical20Mbps()
	// 2.5 MB over 20 Mbps = 1 s, plus one RTT.
	d := m.TransferTime(2_500_000, 0, 1)
	want := time.Second + 10*time.Millisecond
	if d < want*95/100 || d > want*105/100 {
		t.Fatalf("transfer time %v, want ~%v", d, want)
	}
}

func TestModelCPUBound(t *testing.T) {
	m := Fast1Gbps()
	m.CPUBytesPerSec = 10e6 // sender can only produce 10 MB/s
	// 10 MB at 125 MB/s link = 80 ms, but CPU needs 1 s: CPU wins.
	d := m.TransferTime(10_000_000, 10_000_000, 0)
	if d < 900*time.Millisecond || d > 1100*time.Millisecond {
		t.Fatalf("transfer time %v, want ~1s (CPU-bound)", d)
	}
	// Without the CPU cap the link dominates.
	m.CPUBytesPerSec = 0
	d = m.TransferTime(10_000_000, 10_000_000, 0)
	if d > 200*time.Millisecond {
		t.Fatalf("transfer time %v, want link-bound ~80ms", d)
	}
}

func TestModelRounds(t *testing.T) {
	m := Model{RateBytesPerSec: Mbps(100), RTT: 20 * time.Millisecond}
	base := m.TransferTime(1000, 0, 0)
	with5 := m.TransferTime(1000, 0, 5)
	if with5-base < 99*time.Millisecond || with5-base > 101*time.Millisecond {
		t.Fatalf("5 rounds added %v, want 100ms", with5-base)
	}
}

func TestMbps(t *testing.T) {
	if Mbps(8) != 1e6 {
		t.Fatalf("Mbps(8) = %v", Mbps(8))
	}
}
