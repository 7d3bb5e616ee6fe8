package train

import "fmt"

// Engine selects how a training iteration executes.
type Engine int

// Engines.
const (
	// EnginePipelined (the zero value) runs micro-batches on the 1F1B
	// executor — one goroutine per (dp group, stage) rank over the
	// collective runtime's point-to-point transport — and the sync
	// phases on the ring collectives, on every grid: a single-stage rank
	// simply has no pipeline neighbours.
	EnginePipelined Engine = iota
	// EngineReference runs everything serially with in-place
	// reductions and no collective runtime at all — the bit-identity
	// oracle for the whole communication stack. No traffic accounting.
	EngineReference
)

func (e Engine) String() string {
	switch e {
	case EnginePipelined:
		return "pipelined"
	case EngineReference:
		return "reference"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine resolves a flag spelling ("pipelined", "reference") to an
// Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "pipelined":
		return EnginePipelined, nil
	case "reference":
		return EngineReference, nil
	}
	return EnginePipelined, fmt.Errorf("train: unknown engine %q (want pipelined or reference)", s)
}

// DPSyncMode selects how data-parallel gradient synchronization
// executes on the pipelined engine.
type DPSyncMode int

// DP-sync modes.
const (
	// DPSyncOverlapped (the zero value) issues each stage's bucketed
	// all-reduces — via the collective async handles — as soon as that
	// stage's gradients are final, while other stages are still inside
	// the backward pass, and waits on every handle just before the
	// optimizer step. The reduction schedule per gradient is unchanged,
	// so results are bit-identical to blocking mode.
	DPSyncOverlapped DPSyncMode = iota
	// DPSyncBlocking issues the same bucket handles from the iteration
	// goroutine once the whole backward pass has joined, then waits on
	// them — the un-overlapped baseline.
	DPSyncBlocking
)

func (m DPSyncMode) String() string {
	switch m {
	case DPSyncOverlapped:
		return "overlapped"
	case DPSyncBlocking:
		return "blocking"
	}
	return fmt.Sprintf("DPSyncMode(%d)", int(m))
}
