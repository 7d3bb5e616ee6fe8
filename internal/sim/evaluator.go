package sim

import (
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/simnet"
)

// Evaluator prices many Optimus-CC configurations on one frozen task
// graph. The graph's structure — which tasks exist, their dependencies,
// the per-device/per-link resource chains — is fixed by the parallelism
// grid (stages × micro-batches); only the task durations vary with the
// configuration. NewEvaluator builds that graph once and freezes its
// topological order (simnet.Sequence). Price then assigns the
// candidate's durations through the same price function BuildGraph
// uses and re-solves the sequence once for the iteration time and once
// per exposed component, with no allocation in the solves.
//
// Structural superset: the skeleton is built under a dense,
// two-phase-embedding configuration. A fused-§6 candidate prices the
// second EMB task at zero duration, which leaves the makespan and the
// breakdown re-solves identical to the graph BuildGraph would have
// produced for it (the extra zero task finishes exactly when its
// predecessor does). TestEvaluatorMatchesSimulate pins this equivalence
// bit for bit against Simulate across every compressor family.
//
// Concurrency contract: an Evaluator is single-goroutine. Price mutates
// the frozen sequence in place (task durations, the solver's scratch),
// so concurrent Price calls on one Evaluator race. Distinct Evaluators
// built from the same base Scenario share no mutable state — each
// NewEvaluator call builds its own graph and sequence — so running one
// Evaluator per goroutine is safe and bit-identical to a serial run
// (pinned by TestEvaluatorsDoNotAliasState under -race).
// internal/whatif pools Evaluators behind exactly this contract.
type Evaluator struct {
	base Scenario
	it   *iteration
	seq  *simnet.Sequence
}

// Estimate is one candidate's predicted cost: iteration time, the
// exposed (CPI-stack) contribution of each communication component, and
// the per-iteration wire volumes at simulator scale. The JSON encoding
// is the wire format of the what-if service's /v1/price endpoint and of
// optcc-sim -price, so the two can be diffed bit-for-bit.
type Estimate struct {
	IterationSec float64 `json:"iteration_sec"`
	// Exposed contributions: iteration time minus the makespan with that
	// component's tasks priced at zero (§3's methodology, re-solved on
	// the frozen sequence).
	ExposedPPSec  float64 `json:"exposed_pp_sec"`
	ExposedDPSec  float64 `json:"exposed_dp_sec"`
	ExposedEmbSec float64 `json:"exposed_emb_sec"`
	// PPBytesPerReplica is one replica's inter-stage wire volume per
	// iteration (PredictInterStageFromPlan over the candidate's plan).
	PPBytesPerReplica int64 `json:"pp_bytes_per_replica"`
	// DPBytes is the aggregate DP-sync ring volume per iteration across
	// all stages (dpRingBytes on the stage shards; the per-channel
	// bucket-resolved prediction for executed runs is
	// PredictDPBucketBytes, which the trainer-scale crosschecks pin).
	DPBytes int64 `json:"dp_bytes"`
	// EmbBytes is the aggregate §6 embedding-sync volume per iteration.
	EmbBytes int64 `json:"emb_bytes"`
	// Buckets is the compiled plan's per-stage DP-sync bucket count
	// (nil when the grid carries no gradient sizes). It is reported, not
	// priced: each stage's DP sync is one task whatever the budget, which
	// is why the autotuner does not search the budget.
	// Shared when an Estimate comes out of the what-if cache: read-only.
	Buckets []int `json:"buckets,omitempty"`
}

// NewEvaluator validates the scenario, builds the skeleton graph, and
// freezes it. The scenario's Cfg and BucketBytes are templates only —
// Price substitutes the candidate's.
func NewEvaluator(base Scenario) (*Evaluator, error) {
	skel := base
	skel.Cfg = core.Config{Seed: 1} // dense two-phase skeleton (structural superset)
	skel.BucketBytes = 0
	it, err := buildIteration(skel, nil)
	if err != nil {
		return nil, err
	}
	seq, err := it.g.Freeze()
	if err != nil {
		return nil, err
	}
	return &Evaluator{base: base, it: it, seq: seq}, nil
}

// Scenario returns the evaluator's base scenario (Cfg/BucketBytes are
// overridden per Price call).
func (ev *Evaluator) Scenario() Scenario { return ev.base }

// Plan compiles the candidate's plan on the evaluator's grid — the same
// plan Price prices and the trainer would execute.
func (ev *Evaluator) Plan(cfg core.Config, bucketBytes int64) (*plan.Plan, error) {
	return ev.candidate(cfg, bucketBytes).Plan()
}

// candidate is the base scenario with the candidate's configuration and
// bucket budget. Any non-zero budget replaces the base's, so a negative
// one reaches plan.Compile and is rejected there.
func (ev *Evaluator) candidate(cfg core.Config, bucketBytes int64) Scenario {
	s := ev.base
	s.Cfg = cfg
	if bucketBytes != 0 {
		s.BucketBytes = bucketBytes
	}
	return s
}

// Price evaluates one candidate configuration: compile its plan, assign
// the plan-derived durations onto the frozen sequence, and re-solve for
// the iteration time and the exposed-communication breakdown. An
// invalid configuration (unknown family, bad rank) errors before any
// pricing, exactly like plan.Compile.
func (ev *Evaluator) Price(cfg core.Config, bucketBytes int64) (Estimate, error) {
	s := ev.candidate(cfg, bucketBytes)
	if err := s.Validate(); err != nil {
		return Estimate{}, err
	}
	pl, err := s.Plan()
	if err != nil {
		return Estimate{}, err
	}
	d := computeDurations(s, pl)
	ev.it.price(pl, d, nil)
	est := Estimate{IterationSec: ev.seq.Makespan()}
	est.ExposedPPSec = est.IterationSec - ev.seq.MakespanWithout(LabelInterStage)
	est.ExposedDPSec = est.IterationSec - ev.seq.MakespanWithout(LabelDP)
	est.ExposedEmbSec = est.IterationSec - ev.seq.MakespanWithout(LabelEmb)

	est.PPBytesPerReplica = PredictInterStageFromPlan(pl, d.boundaryBytes, d.cmpBoundaryBytes).Bytes
	D := int64(s.Map.DP)
	for st := 0; st < s.Map.PP; st++ {
		est.DPBytes += dpRingBytes(pl.DPCompressed(st), D, d.dpShardBytes[st], d.dpWireBytes[st])
	}
	est.EmbBytes = embSyncBytes(pl.Embedding(), d.embBytes, D)
	if pl.HasBuckets() {
		est.Buckets = make([]int, s.Map.PP)
		for st := range est.Buckets {
			est.Buckets[st] = pl.BucketCount(st)
		}
	}
	return est, nil
}
