package main

import (
	"os/exec"
	"runtime"
	"strings"
)

// hostInfo is what a results file records about where it was measured, so
// two files are only ever compared knowingly.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// Degraded marks a run at GOMAXPROCS=1: the overlapped DP-sync and
	// the 1F1B executor cannot show concurrency there, so the file is
	// flagged instead of silently compared with a multi-core one.
	Degraded bool `json:"degraded"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	h.Degraded = h.GOMAXPROCS == 1
	// Output waits for git to exit; outside a git checkout it fails and
	// the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// loadClients is the number of closed-loop client goroutines (and
// connections) a load generator may use: at most two, never more than the
// host has processors, so the generator does not starve the server it
// measures.
func loadClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// memDelta is the heap traffic between two runtime.MemStats snapshots.
type memDelta struct {
	mallocs, bytes, gcCycles uint64
}

// memProbe snapshots the allocator; since reports the traffic after it.
type memProbe struct{ m runtime.MemStats }

func startMemProbe() *memProbe {
	p := &memProbe{}
	runtime.ReadMemStats(&p.m)
	return p
}

func (p *memProbe) since() memDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return memDelta{
		mallocs:  now.Mallocs - p.m.Mallocs,
		bytes:    now.TotalAlloc - p.m.TotalAlloc,
		gcCycles: uint64(now.NumGC - p.m.NumGC),
	}
}

// heapInUseMB reads the heap currently in use, in MiB.
func heapInUseMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}
