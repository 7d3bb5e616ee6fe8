// Package sim is the timing simulator: it assembles one training
// iteration as a task graph (1F1B compute ops, inter-stage transfers,
// data-parallel all-reduces, embedding synchronization) over the cluster
// topology, applies the Optimus-CC techniques from a core.Config, and
// resolves the iteration time, per-component breakdowns (the CPI-stack
// method of §3), and multi-day training projections of Table 2.
//
// Calibration philosophy: the simulator has one compute constant
// (cluster efficiency, fitted so the baseline GPT-2.5B run matches the
// paper's 14.72 days) and a small set of communication-efficiency
// constants (CommParams, fixed once for all experiments, chosen so the
// baseline Fig. 3 breakdown has the paper's character). Every compressed
// configuration is then a prediction.
package sim

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
)

// CommParams captures how far real distributed-training communication
// falls below nominal link bandwidth. The paper's measured overheads
// (multi-second communication per iteration on a 200 Gb/s fabric) are far
// above pure wire time; these constants model the implementation effects
// (blocking p2p send/recv, NIC sharing inside a node, per-collective
// software overhead, and the blocking embedding-sync phase of
// Megatron-LM v2.5).
type CommParams struct {
	// P2PEff is the fraction of nominal inter-node bandwidth achieved by
	// point-to-point inter-stage transfers.
	P2PEff float64
	// DPEff is the fraction of nominal bandwidth achieved per all-reduce
	// flow, before the node's GPUs share the NIC.
	DPEff float64
	// CollOverheadSec is fixed software overhead per data-parallel
	// collective.
	CollOverheadSec float64
	// EmbPhaseOverheadSec is fixed overhead per embedding-synchronization
	// phase; fusing removes one whole phase (§6).
	EmbPhaseOverheadSec float64
	// SteadyOverlap is the fraction of a steady-phase inter-stage
	// transfer's latency hidden by asynchronous send/recv overlapping with
	// compute (§2.1: "the latency of many point-to-point communications
	// are hidden by overlapping with computations"). Epilogue transfers —
	// and warmup-phase forward transfers, which fill an empty pipeline —
	// are never hidden (§5.2). A strict-dependency DAG would expose every
	// steady send in full, which contradicts the paper's measured
	// behaviour; this factor models Megatron's async comm streams.
	//
	// The scalar applies to the pp link class only. DP-sync overlap is
	// not a tunable: in the task graph each stage's DP task starts after
	// that stage's last backward and runs beside the backward compute
	// still left on earlier stages, mirroring how the executable trainer
	// hides bucketed all-reduces under the backward pass.
	// PredictDPOverlap reports the same window in closed form (exposed
	// comm = max(0, comm − remaining backward compute)).
	SteadyOverlap float64
}

// DefaultCommParams returns the constants used by every experiment.
func DefaultCommParams() CommParams {
	return CommParams{
		P2PEff:              0.008,
		DPEff:               0.20,
		CollOverheadSec:     0.03,
		EmbPhaseOverheadSec: 0.35,
		SteadyOverlap:       0.9,
	}
}

// Validate reports malformed parameters.
func (p CommParams) Validate() error {
	if p.P2PEff <= 0 || p.P2PEff > 1 || p.DPEff <= 0 || p.DPEff > 1 {
		return fmt.Errorf("sim: efficiency factors outside (0,1]: %+v", p)
	}
	if p.CollOverheadSec < 0 || p.EmbPhaseOverheadSec < 0 {
		return fmt.Errorf("sim: negative overheads: %+v", p)
	}
	if p.SteadyOverlap < 0 || p.SteadyOverlap > 1 {
		return fmt.Errorf("sim: SteadyOverlap %v outside [0,1]", p.SteadyOverlap)
	}
	return nil
}

// Scenario is one fully specified simulation: model × cluster × mapping ×
// batch schedule × Optimus-CC configuration.
type Scenario struct {
	Topo        cluster.Topology
	Map         cluster.Mapping
	Spec        cluster.GPTSpec
	MicroBatch  int // per-micro-batch samples (paper: 8)
	GlobalBatch int // total mini-batch (paper: 512)
	Iterations  int // training length (paper: 230K)
	Cfg         core.Config
	Comm        CommParams
	Cost        core.CompressionCostModel
	// BucketBytes caps one DP-sync bucket's dense payload in the
	// compiled plan's bucket schedule (0 = plan.DefaultBucketBytes).
	BucketBytes int64
}

// PaperScenario returns the Table 1 setup for the given model spec and
// Optimus-CC configuration: 128 GPUs as TP8/DP4/PP4, micro-batch 8,
// mini-batch 512, 230K iterations.
func PaperScenario(spec cluster.GPTSpec, cfg core.Config) Scenario {
	return Scenario{
		Topo:        cluster.PaperCluster(),
		Map:         cluster.Mapping{TP: 8, DP: 4, PP: 4},
		Spec:        spec,
		MicroBatch:  8,
		GlobalBatch: 512,
		Iterations:  230000,
		Cfg:         cfg,
		Comm:        DefaultCommParams(),
		Cost:        core.DefaultCompressionCostModel(),
	}
}

// MicroBatches returns the number of micro-batches each pipeline processes
// per iteration: GlobalBatch / (DP × MicroBatch). Paper setting: 16.
func (s Scenario) MicroBatches() int {
	return s.GlobalBatch / (s.Map.DP * s.MicroBatch)
}

// Validate reports scenario errors.
func (s Scenario) Validate() error {
	if err := s.Topo.Validate(); err != nil {
		return err
	}
	if err := s.Map.Validate(s.Topo); err != nil {
		return err
	}
	if err := s.Spec.Validate(); err != nil {
		return err
	}
	if err := s.Cfg.Validate(); err != nil {
		return err
	}
	if err := s.Comm.Validate(); err != nil {
		return err
	}
	if s.MicroBatch < 1 || s.GlobalBatch < 1 || s.Iterations < 1 {
		return fmt.Errorf("sim: non-positive batch/iteration settings")
	}
	if s.GlobalBatch%(s.Map.DP*s.MicroBatch) != 0 {
		return fmt.Errorf("sim: GlobalBatch %d not divisible by DP×MicroBatch %d",
			s.GlobalBatch, s.Map.DP*s.MicroBatch)
	}
	if s.Spec.Layers%s.Map.PP != 0 {
		return fmt.Errorf("sim: layers %d not divisible by PP %d", s.Spec.Layers, s.Map.PP)
	}
	return nil
}

// LayersPerStage returns the per-stage layer count.
func (s Scenario) LayersPerStage() int { return s.Spec.Layers / s.Map.PP }

// Plan compiles the scenario's communication/compression plan — the
// same plan.Compile the executable trainer runs, so the simulator's
// edge placement, §7 stage selection, §6 embedding strategy, and
// DP-sync bucket schedule can never drift from the executed ones. The
// boundary shape is the inter-stage activation-gradient: (micro-batch
// samples × seq) × hidden; the gradient channels are one per layer, the
// TP-sharded per-layer gradient.
func (s Scenario) Plan() (*plan.Plan, error) {
	chanBytes := s.Spec.ParamsPerLayer() / int64(s.Map.TP) * 2
	sizes := make([][]int64, s.Map.PP)
	for st := range sizes {
		row := make([]int64, s.LayersPerStage())
		for c := range row {
			row[c] = chanBytes
		}
		sizes[st] = row
	}
	return plan.Compile(s.Cfg, plan.Grid{
		Stages:         s.Map.PP,
		DPGroups:       s.Map.DP,
		MicroBatches:   s.MicroBatches(),
		BoundaryRows:   s.MicroBatch * s.Spec.SeqLen,
		BoundaryCols:   s.Spec.Hidden,
		StageGradBytes: sizes,
		BucketBytes:    s.BucketBytes,
	})
}

// StageParams returns the parameter count owned by one pipeline stage,
// embedding tables excluded (they are accounted by the EMB tasks).
func (s Scenario) StageParams(stage int) int64 {
	return int64(s.LayersPerStage()) * s.Spec.ParamsPerLayer()
}

// Result is the outcome of a simulation.
type Result struct {
	IterationSec float64
	Days         float64
	// Exposed is the CPI-stack breakdown: for each component label, the
	// increase in iteration time attributable to it (makespan minus
	// makespan with that component's tasks zeroed), per §3's methodology.
	Exposed map[string]float64
	// Busy is the total duration of tasks per label (overlapped or not).
	Busy map[string]float64
}

// Speedup returns baseline.IterationSec/r.IterationSec − 1, the paper's
// speedup definition in Table 2.
func (r Result) Speedup(baseline Result) float64 {
	return baseline.IterationSec/r.IterationSec - 1
}

// Component labels used in graphs and breakdowns.
const (
	LabelFwd        = "fwd"
	LabelBwd        = "bwd"
	LabelInterStage = "interstage"
	LabelDP         = "dp"
	LabelEmb        = "emb"
)

// AllLabels lists the breakdown components in display order.
var AllLabels = []string{LabelFwd, LabelBwd, LabelInterStage, LabelDP, LabelEmb}
