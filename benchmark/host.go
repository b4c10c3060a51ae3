package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
)

// host is the fingerprint stamped on every output, so that no number is
// ever read without the machine it came from.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Network    string `json:"network"`
	Clients    int    `json:"clients"`
	// ParallelClaims is false on a single-core host: its runs still
	// complete, but must not be cited for any fan-out or scaling claim.
	ParallelClaims bool `json:"parallel_claims"`
}

func fingerprint() host {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return host{
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Kernel:         kernel,
		Network:        "loopback",
		Clients:        clientCount(),
		ParallelClaims: runtime.NumCPU() >= 2,
	}
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s linux-%s network=%s clients=%d parallel_claims=%v",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.Network, h.Clients, h.ParallelClaims)
}
