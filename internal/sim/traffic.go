package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/plan"
)

// Executed-traffic closed forms. Each wire volume the trainer's
// executor moves has exactly one formula, here, and every consumer —
// the evaluator's per-candidate volumes at simulator scale, and
// PredictExecution at trainer scale, which the trainer's reconciliation
// and the autotune loop read — evaluates that formula over its own
// payload sizes.

// InterStageTraffic is the analytic prediction of one DP replica's
// pipeline-parallel wire traffic for one training iteration: the number
// of point-to-point messages (= latency-bearing steps) and the total
// bytes across all stages−1 boundaries, forward and backward directions
// both counted.
//
// denseBytes is the dense wire size of one boundary activation (and
// activation-gradient — both are micro-batch×hidden). cmpBytes is the
// compressed backward payload size, charged on exactly the edges the
// compiled plan selects (§5.1/§5.2) — the same *plan.Plan the executable
// trainer runs, so executed and predicted volume must agree to the byte
// (pinned by cross-check tests and the `pipeline` experiment).
type InterStageTraffic struct {
	Bytes    int64
	Messages int64
	Steps    int64
}

// PredictInterStage computes the per-replica prediction for a
// stages-deep pipeline running micros micro-batches under cfg. It is a
// convenience wrapper over PredictInterStageFromPlan: the configuration
// is compiled and the prediction derived from the plan's edge actions,
// never from an independent re-derivation of the placement rules.
func PredictInterStage(cfg core.Config, stages, micros int, denseBytes, cmpBytes int64) (InterStageTraffic, error) {
	p, err := plan.Compile(cfg, plan.Grid{Stages: stages, DPGroups: 1, MicroBatches: micros})
	if err != nil {
		return InterStageTraffic{}, err
	}
	return PredictInterStageFromPlan(p, denseBytes, cmpBytes), nil
}

// PredictInterStageFromPlan prices one replica's inter-stage traffic
// directly off a compiled plan: every forward edge is dense (§5), and
// each backward edge costs denseBytes or cmpBytes exactly where the
// plan's edge actions say so.
func PredictInterStageFromPlan(p *plan.Plan, denseBytes, cmpBytes int64) InterStageTraffic {
	var tr InterStageTraffic
	if p.Grid().Stages <= 1 {
		return tr
	}
	fwd, denseBwd, cmpBwd := p.Counts()
	tr.Messages = int64(fwd + denseBwd + cmpBwd)
	tr.Steps = tr.Messages
	tr.Bytes = int64(fwd+denseBwd)*denseBytes + int64(cmpBwd)*cmpBytes
	return tr
}

// dpRingBytes is one gradient channel's aggregate ring volume across D
// members: a dense channel of dense bytes costs 2·dense·(D−1)
// (reduce-scatter + all-gather, Thakur); a compressed one ships each
// member's payload D−1 hops around the ring, (D−1)·D·payload.
func dpRingBytes(compressed bool, d, dense, payload int64) int64 {
	if compressed {
		return (d - 1) * d * payload
	}
	return 2 * dense * (d - 1)
}

// embSyncBytes is the §6 embedding synchronization's aggregate volume
// for a V-byte table across D replicas. A dense R-way ring all-reduce of
// V bytes moves 2·V·(R−1) whatever the chunking: DP-only is R = D,
// fused (Eq. 16) is R = 2D, and two-phase (Eq. 15) is one D-way average
// per side followed by D pairwise 2-way sums.
func embSyncBytes(e plan.EmbeddingStrategy, v, d int64) int64 {
	switch e {
	case plan.EmbDPOnly:
		return 2 * v * (d - 1)
	case plan.EmbFused:
		return 2 * v * (2*d - 1)
	case plan.EmbTwoPhase:
		return 2*2*v*(d-1) + d*2*v
	}
	return 0 // EmbNone: single rank, in-place update
}

// PredictDPBucketBytes prices the aggregate executed wire volume of one
// bucketed DP synchronization from a compiled plan: per (stage, bucket),
// the bytes the collective runtime's ring moves summed over every
// member's sends (dpRingBytes per channel).
//
// payloadBytes reports channel (stage, ch)'s compressed payload size, or
// 0 where the channel stays dense (incompressible shapes — vectors —
// remain dense even on compressed stages, which only the caller, who
// knows the shapes, can decide). The result reconciles exactly with the
// trainer's ExecutedDPBuckets, which the crosscheck tests pin.
func PredictDPBucketBytes(p *plan.Plan, payloadBytes func(stage, ch int) int64) ([][]int64, error) {
	if !p.HasBuckets() {
		return nil, fmt.Errorf("sim: plan carries no bucket schedule")
	}
	g := p.Grid()
	d := int64(g.DPGroups)
	out := make([][]int64, g.Stages)
	for st := 0; st < g.Stages; st++ {
		sizes := g.StageGradBytes[st]
		buckets := p.Buckets(st)
		out[st] = make([]int64, len(buckets))
		for bi, b := range buckets {
			var wire int64
			for _, ch := range b.Channels {
				w := payloadBytes(st, ch)
				wire += dpRingBytes(p.DPCompressed(st) && w > 0, d, sizes[ch], w)
			}
			out[st][bi] = wire
		}
	}
	return out, nil
}

// Probes carries the executed-scale payload sizes PredictExecution
// prices a plan with. The trainer measures them by compressing probe
// tensors through the plan's own specs (payload sizes are
// shape-determined, so one probe prices every send of a class).
type Probes struct {
	// DenseBoundaryBytes is one dense inter-stage activation/
	// activation-gradient payload.
	DenseBoundaryBytes int64
	// CBWireBytes is one compressed backward payload (0 when CB is off).
	CBWireBytes int64
	// DPPayloadBytes reports gradient channel (stage, ch)'s compressed
	// payload size, or 0 where the channel stays dense (incompressible
	// shapes remain dense even on compressed stages).
	DPPayloadBytes func(stage, ch int) int64
	// EmbTableBytes is one rank's embedding-table gradient payload.
	EmbTableBytes int64
}

// ExecutionPrediction is one executed iteration's wire volumes — the
// quantities the executor crosschecks pin at tolerance zero.
type ExecutionPrediction struct {
	// PPBytes is the inter-stage volume across all replicas.
	PPBytes int64
	// DPBuckets is the per-(stage, bucket) aggregate DP-sync ring
	// volume, aligned with the plan's bucket schedule (nil without DP
	// sync); DPBytes its sum.
	DPBuckets [][]int64
	DPBytes   int64
	// EmbBytes is the §6 embedding-sync aggregate volume.
	EmbBytes int64
}

// PredictExecution prices one iteration's executed wire volumes from a
// compiled plan at the caller's scale, evaluated over the probe payload
// sizes. Because the trainer executes the identical plan, executed
// volume == this prediction exactly.
func PredictExecution(pl *plan.Plan, pr Probes) ExecutionPrediction {
	g := pl.Grid()
	var out ExecutionPrediction
	out.PPBytes = PredictInterStageFromPlan(pl, pr.DenseBoundaryBytes, pr.CBWireBytes).Bytes * int64(g.DPGroups)
	if g.DPGroups > 1 && pl.HasBuckets() {
		out.DPBuckets, _ = PredictDPBucketBytes(pl, pr.DPPayloadBytes) // HasBuckets: cannot fail
		for _, row := range out.DPBuckets {
			for _, b := range row {
				out.DPBytes += b
			}
		}
	}
	out.EmbBytes = embSyncBytes(pl.Embedding(), pr.EmbTableBytes, int64(g.DPGroups))
	return out
}
