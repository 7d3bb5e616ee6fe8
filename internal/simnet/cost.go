// Package simnet provides the discrete-event substrate of the timing
// simulator: analytic cost models for point-to-point transfers and ring
// all-reduce (Thakur et al., the model the paper's §6 cost analysis uses),
// and a task-graph engine that resolves start/finish times for compute and
// communication tasks sharing exclusive resources.
package simnet

import "fmt"

// Link models one interconnect class by bandwidth and per-message latency.
type Link struct {
	Name         string
	BandwidthBps float64 // bits per second
	LatencySec   float64 // per-message latency (α term)
}

// TransferTime returns the time to move bytes over the link once.
func (l Link) TransferTime(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return l.LatencySec + float64(bytes*8)/l.BandwidthBps
}

// AllReduceSteps returns the latency-bearing step count of a ring
// all-reduce across ranks participants: 2(R−1) (Thakur et al.) — R−1
// reduce-scatter rounds plus R−1 all-gather rounds, including the R=2
// edge case (2 steps, not 1: the two ranks still exchange a half each
// way twice). The executable runtime in internal/collective follows the
// same schedule; a cross-check test pins the two to each other.
func AllReduceSteps(ranks int) int {
	if ranks <= 1 {
		return 0
	}
	return 2 * (ranks - 1)
}

// InterStageMessages returns the number of point-to-point messages one
// pipeline replica puts on its inter-stage links in one 1F1B iteration,
// both directions counted: each of the stages−1 boundaries carries one
// forward activation and one backward activation-gradient per
// micro-batch. Every message is one latency-bearing step, so this is
// also the predicted pp-class step count; the executable pipeline
// executor in internal/train is pinned to it by cross-check tests.
func InterStageMessages(stages, microBatches int) int {
	if stages <= 1 || microBatches < 1 {
		return 0
	}
	return 2 * (stages - 1) * microBatches
}

// AllReduceTime returns the ring all-reduce time for volume bytes across
// ranks participants: each rank sends/receives 2V·(R−1)/R bytes, in
// AllReduceSteps latency-bearing steps. This is exactly the cost model
// behind the paper's Eq. 15/16.
func (l Link) AllReduceTime(bytes int64, ranks int) float64 {
	if ranks <= 1 || bytes <= 0 {
		return 0
	}
	r := float64(ranks)
	vol := 2 * float64(bytes) * (r - 1) / r
	return float64(float64(AllReduceSteps(ranks))*l.LatencySec) + vol*8/l.BandwidthBps
}

// TimeForVolume prices an already-measured per-rank traffic profile —
// bytes moved in steps latency-bearing rounds — over the link. This is
// how the collective runtime's executed byte/step counts are fed back
// into the analytic model: AllReduceTime predicts, TimeForVolume prices
// what actually ran, and the two agree exactly when the runtime follows
// the Thakur schedule.
func (l Link) TimeForVolume(bytes int64, steps int) float64 {
	if bytes <= 0 && steps <= 0 {
		return 0
	}
	return float64(float64(steps)*l.LatencySec) + float64(bytes*8)/l.BandwidthBps
}

// EmbSyncBaselineTime returns the §6 baseline embedding cost C_Emb =
// V·(3D−2)/D over the link: a D-way all-reduce (data parallel) followed by
// a 2-way all-reduce (first↔last stage), per Eq. 15.
func (l Link) EmbSyncBaselineTime(bytes int64, dataParallel int) float64 {
	return l.AllReduceTime(bytes, dataParallel) + l.AllReduceTime(bytes, 2)
}

// EmbSyncFusedTime returns the §6 fused cost C_Emb_fused = V·(2D−1)/D: a
// single 2D-way all-reduce, per Eq. 16.
func (l Link) EmbSyncFusedTime(bytes int64, dataParallel int) float64 {
	return l.AllReduceTime(bytes, 2*dataParallel)
}

// Validate reports malformed links.
func (l Link) Validate() error {
	if l.BandwidthBps <= 0 {
		return fmt.Errorf("simnet: link %q bandwidth %v <= 0", l.Name, l.BandwidthBps)
	}
	if l.LatencySec < 0 {
		return fmt.Errorf("simnet: link %q negative latency", l.Name)
	}
	return nil
}
