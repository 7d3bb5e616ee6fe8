package sim

import "repro/internal/simnet"

// DP-sync overlap, read off the solved iteration graph. Each stage's DP
// task starts after that stage's last backward and runs on the stage's
// own NIC beside the backward compute still left on earlier stages —
// the 1F1B drain, which the graph lays out micro-batch by micro-batch —
// mirroring how the executable trainer hides its bucketed all-reduces
// under the backward pass. What the DP task does not finish before the
// iteration's last backward is exposed. Reading the window off the graph
// Simulate and the Evaluator price keeps one DP model, so the exposure
// reported here is Simulate's DP breakdown component.

// StageOverlap is one stage's DP-sync overlap prediction.
type StageOverlap struct {
	Stage int
	// Buckets is the stage's bucket count in the compiled schedule.
	Buckets int
	// CommSec is the duration of the stage's DP task (collective
	// overhead, wire time over the stage's volume, codec where §7
	// compresses).
	CommSec float64
	// HideSec is the window the communication can hide under: the
	// iteration's last backward finish minus the DP task's start.
	HideSec float64
	// ExposedSec = max(0, DP finish − last backward finish).
	ExposedSec float64
}

// DPOverlap is the graph-derived DP-sync overlap prediction for one
// scenario.
type DPOverlap struct {
	Stages []StageOverlap
	// CommSec is Σ per-stage comm; ExposedSec is the iteration-time
	// impact: stages communicate on disjoint NICs, so their exposed
	// tails run concurrently and the iteration pays only the maximum.
	CommSec    float64
	ExposedSec float64
	// EmbExposedSec is the §6 phase, which runs after every DP handle
	// has drained and is never hidden (emb link class).
	EmbExposedSec float64
}

// PredictDPOverlap builds and solves s's iteration graph and reads the
// DP-sync overlap off it.
func PredictDPOverlap(s Scenario) (DPOverlap, error) {
	it, err := buildIteration(s, nil)
	if err != nil {
		return DPOverlap{}, err
	}
	if _, err := it.g.Solve(); err != nil {
		return DPOverlap{}, err
	}
	pl, err := s.Plan()
	if err != nil {
		return DPOverlap{}, err
	}
	var out DPOverlap
	var lastBwd float64
	dp := make([]*simnet.Task, s.Map.PP)
	for i, t := range it.g.Tasks() {
		switch m := it.meta[i]; m.kind {
		case taskBwd:
			lastBwd = max(lastBwd, t.Finish())
		case taskDP:
			dp[m.stage] = t
		case taskEmb:
			out.EmbExposedSec += t.Duration
		}
	}
	for st, t := range dp {
		so := StageOverlap{
			Stage:      st,
			Buckets:    pl.BucketCount(st),
			CommSec:    t.Duration,
			HideSec:    lastBwd - t.Start(),
			ExposedSec: max(0, t.Finish()-lastBwd),
		}
		out.Stages = append(out.Stages, so)
		out.CommSec += so.CommSec
		out.ExposedSec = max(out.ExposedSec, so.ExposedSec)
	}
	return out, nil
}
