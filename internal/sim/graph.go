package sim

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/simnet"
)

// durations bundles all task durations derived from a scenario.
type durations struct {
	fwd []float64 // per stage, per micro-batch
	bwd []float64
	// Inter-stage transfer components. Transfers are wire time; codec is
	// the compression+decompression compute, which overlapping cannot
	// hide.
	sendFwdXfer    float64 // dense forward transfer
	sendBwdXfer    float64 // dense backward transfer
	sendBwdCmpXfer float64 // compressed backward transfer (wire only)
	sendBwdCodec   float64 // compress+decompress time per backward send
	dp             []float64
	embPhase       []float64 // embedding tasks in order (baseline: EMB DP, EMB Sync; fused: one)

	// Wire-volume byproducts of the duration formulas, recorded so the
	// batch evaluator can report per-candidate volumes without re-deriving
	// the pricing (the same quantities the transfer times above are
	// computed from).
	boundaryBytes    int64   // dense inter-stage payload (activation / activation-gradient)
	cmpBoundaryBytes int64   // compressed backward payload (== boundaryBytes when CB is off)
	dpShardBytes     []int64 // per-stage dense DP-sync shard
	dpWireBytes      []int64 // per-stage per-rank DP payload after §7 compression (== shard when dense)
	embBytes         int64   // per-rank embedding-table shard

	// sendHide is the share of a steady-phase send left exposed, 1 −
	// CommParams.SteadyOverlap (Megatron's async send/recv); warmup
	// forward sends and epilogue backward sends are fully exposed.
	sendHide float64
}

// zeroSet marks labels whose tasks get zero duration (the §3 CPI-stack
// "turn off a component" methodology).
type zeroSet map[string]bool

func (z zeroSet) dur(label string, d float64) float64 {
	if len(z) != 0 && z[label] {
		return 0
	}
	return d
}

// computeDurations derives every task duration from the scenario and
// its compiled plan (which supplies the §7 stage selection and the §6
// embedding strategy; the per-edge §5.2 placement is applied by
// BuildGraph from the same plan).
func computeDurations(s Scenario, pl *plan.Plan) durations {
	var d durations
	p := s.Map.PP
	tokens := float64(s.MicroBatch * s.Spec.SeqLen)
	eff := s.Topo.EffectiveFLOPs() * float64(s.Map.TP)

	actBytes := s.Spec.ActivationBytes(s.MicroBatch, 2)
	tpAllReduce := s.Topo.Intra.AllReduceTime(actBytes, s.Map.TP)

	d.fwd = make([]float64, p)
	d.bwd = make([]float64, p)
	for st := 0; st < p; st++ {
		flops := float64(float64(s.LayersPerStage()) * s.Spec.FwdFLOPsPerLayerPerToken() * tokens)
		if st == p-1 {
			// Output head: logits = h·Embᵀ, 2·tokens·H·V FLOPs.
			flops += float64(2 * tokens * float64(s.Spec.Hidden) * float64(s.Spec.VocabSize))
		}
		tp := float64(float64(s.LayersPerStage()) * 2 * tpAllReduce)
		d.fwd[st] = flops/eff + tp
		// Backward is ≈2× forward compute, with its own pair of TP
		// all-reduces per layer.
		d.bwd[st] = 2*flops/eff + float64(2*tp)
	}

	// Inter-stage p2p transfers.
	d.sendHide = 1 - s.Comm.SteadyOverlap
	p2pLink := simnet.Link{
		Name:         "p2p",
		BandwidthBps: s.Topo.Inter.BandwidthBps * s.Comm.P2PEff,
		LatencySec:   s.Topo.Inter.LatencySec,
	}
	d.sendFwdXfer = p2pLink.TransferTime(actBytes)
	d.sendBwdXfer = p2pLink.TransferTime(actBytes)
	d.sendBwdCmpXfer = d.sendBwdXfer
	d.boundaryBytes = actBytes
	d.cmpBoundaryBytes = actBytes
	if s.Cfg.CompressBackprop {
		n := s.MicroBatch * s.Spec.SeqLen
		m := s.Spec.Hidden
		wire := core.LowRankWireBytes(n, m, s.Cfg.CBRank, 2)
		d.sendBwdCodec = s.Cost.CompressTime(n, m, s.Cfg.CBRank) + s.Cost.DecompressTime(n, m, s.Cfg.CBRank)
		switch {
		case pl.CBSparse():
			// Sparse families ship (value, index) pairs: 3× the low-rank
			// payload for the same element budget (§2.3's gather/index
			// overhead). Their codec is priced nnz-aware: a selection pass
			// plus per-kept gather to compress, a k-element scatter to
			// decompress — no orthogonalization term, so the codec tracks
			// the kept-element count rather than the dense shape.
			wire *= 3
			k := int(float64(n) * float64(m) * pl.CBSpec(0, 1).Fraction)
			if k < 1 {
				k = 1
			}
			d.sendBwdCodec = s.Cost.SparseCompressTime(n, m, k) + s.Cost.SparseDecompressTime(k)
		case pl.CBFamily() != "powersgd":
			// Quantizer families have a shape-determined fixed ratio; ask
			// the registry-built compressor itself (Compile trial-built
			// the spec, so this cannot fail). Their element-wise codecs
			// are negligible next to PowerSGD's orthogonalization (§9.6),
			// so no codec term.
			c := compress.MustBuild(pl.CBSpec(0, 1))
			wire = int64(float64(float64(n)*float64(m)) * 2 / c.Ratio(n, m))
			d.sendBwdCodec = 0
		}
		d.sendBwdCmpXfer = p2pLink.TransferTime(wire)
		d.cmpBoundaryBytes = wire
	}

	// Data-parallel all-reduce per stage. Every GPU in a node runs its own
	// ring concurrently, sharing the NIC.
	dpLink := simnet.Link{
		Name:         "dp",
		BandwidthBps: s.Topo.Inter.BandwidthBps * s.Comm.DPEff / float64(s.Topo.GPUsPerNode),
		LatencySec:   s.Topo.Inter.LatencySec,
	}
	d.dp = make([]float64, p)
	d.dpShardBytes = make([]int64, p)
	d.dpWireBytes = make([]int64, p)
	for st := 0; st < p; st++ {
		shardBytes := s.StageParams(st) / int64(s.Map.TP) * 2
		d.dpShardBytes[st] = shardBytes
		d.dpWireBytes[st] = shardBytes
		if s.Map.DP <= 1 {
			d.dp[st] = 0
			continue
		}
		if pl.DPCompressed(st) {
			gr, gc := s.Spec.LayerGradShape()
			var frac, codec float64
			if pl.DPFamily() == "powersgd" {
				frac = float64(core.LowRankWireBytes(gr, gc, s.Cfg.DPRank, 2)) /
					float64(int64(gr)*int64(gc)*2)
				codec = float64(s.LayersPerStage()) *
					(s.Cost.CompressTime(gr, gc/s.Map.TP, s.Cfg.DPRank) +
						s.Cost.DecompressTime(gr, gc/s.Map.TP, s.Cfg.DPRank))
			} else {
				// Non-low-rank families: the family's own fixed ratio on
				// the layer-gradient shape (Compile trial-built the spec,
				// so this cannot fail); element-wise codecs priced 0.
				frac = 1 / compress.MustBuild(pl.DPSpec(st, 0, 0)).Ratio(gr, gc)
			}
			wire := int64(float64(shardBytes) * frac)
			d.dpWireBytes[st] = wire
			d.dp[st] = s.Comm.CollOverheadSec + dpLink.AllReduceTime(wire, s.Map.DP) + codec
		} else {
			d.dp[st] = s.Comm.CollOverheadSec + dpLink.AllReduceTime(shardBytes, s.Map.DP)
		}
	}

	// Embedding synchronization per the plan's §6 strategy. The table is
	// vocab-sharded across TP.
	embBytes := s.Spec.EmbeddingParams() / int64(s.Map.TP) * 2
	d.embBytes = embBytes
	switch pl.Embedding() {
	case plan.EmbNone:
		// Single rank: no phase.
	case plan.EmbDPOnly:
		// First and last stage coincide: only the DP all-reduce remains.
		d.embPhase = []float64{s.Comm.EmbPhaseOverheadSec + dpLink.AllReduceTime(embBytes, s.Map.DP)}
	case plan.EmbFused:
		d.embPhase = []float64{
			s.Comm.EmbPhaseOverheadSec + dpLink.AllReduceTime(embBytes, 2*s.Map.DP),
		}
	case plan.EmbTwoPhase:
		dpPart := dpLink.AllReduceTime(embBytes, s.Map.DP)
		if s.Map.DP <= 1 {
			dpPart = 0
		}
		d.embPhase = []float64{
			s.Comm.EmbPhaseOverheadSec + dpPart,
			s.Comm.EmbPhaseOverheadSec + dpLink.AllReduceTime(embBytes, 2),
		}
	}
	return d
}

// taskKind is what a task of the iteration graph models.
type taskKind int8

const (
	taskFwd taskKind = iota
	taskBwd
	taskSendFwd
	taskSendBwd
	taskDP
	taskEmb
)

// taskMeta is what the graph builder records about each task as it adds
// it; price reads it to assign the task's duration.
type taskMeta struct {
	kind  taskKind
	stage int // EMB tasks: the phase index
	micro int
	// unhidden marks a warmup forward send (pipeline fill) or an
	// epilogue backward send (drain): neither overlaps with compute.
	unhidden bool
}

// iteration is one training iteration's task graph plus the metadata of
// each task, parallel to g.Tasks().
type iteration struct {
	g    *simnet.Graph
	meta []taskMeta
}

// BuildGraph assembles one training iteration as a task graph. zero lists
// component labels whose durations are forced to zero (for breakdowns).
func BuildGraph(s Scenario, zero zeroSet) (*simnet.Graph, error) {
	it, err := buildIteration(s, zero)
	if err != nil {
		return nil, err
	}
	return it.g, nil
}

// buildIteration validates the scenario, compiles its plan, lays out the
// iteration's tasks and prices them.
func buildIteration(s Scenario, zero zeroSet) (*iteration, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := s.Map.PP
	m := s.MicroBatches()
	pl, err := s.Plan()
	if err != nil {
		return nil, err
	}
	sched, err := pipeline.OneFOneB(p, m)
	if err != nil {
		return nil, err
	}
	d := computeDurations(s, pl)
	it := &iteration{g: simnet.NewGraph()}
	add := func(id, label, resource string, meta taskMeta) *simnet.Task {
		it.meta = append(it.meta, meta)
		return it.g.Add(id, label, 0, resource)
	}

	// Compute tasks in per-device schedule order (fixes resource order).
	fwd, bwd := make([][]*simnet.Task, p), make([][]*simnet.Task, p)
	warmup := make([][]bool, p)
	for st := 0; st < p; st++ {
		fwd[st], bwd[st], warmup[st] = make([]*simnet.Task, m), make([]*simnet.Task, m), make([]bool, m)
		dev := fmt.Sprintf("dev%d", st)
		for _, op := range sched.PerStage[st] {
			mi := op.Micro
			switch op.Kind {
			case pipeline.Forward:
				fwd[st][mi] = add(fmt.Sprintf("F/%d/%d", st, mi), LabelFwd, dev,
					taskMeta{kind: taskFwd, stage: st, micro: mi})
				warmup[st][mi] = op.Phase == pipeline.Warmup
			case pipeline.Backward:
				bwd[st][mi] = add(fmt.Sprintf("B/%d/%d", st, mi), LabelBwd, dev,
					taskMeta{kind: taskBwd, stage: st, micro: mi})
			}
		}
	}
	// Inter-stage transfers: forward sends stage st → st+1, backward sends
	// stage st → st−1. Each boundary/direction is its own link resource.
	for st := 0; st < p-1; st++ {
		link := fmt.Sprintf("linkF%d", st)
		for mi := 0; mi < m; mi++ {
			t := add(fmt.Sprintf("SF/%d/%d", st, mi), LabelInterStage, link,
				taskMeta{kind: taskSendFwd, stage: st, micro: mi, unhidden: warmup[st][mi]})
			it.g.Dep(fwd[st][mi], t)
			it.g.Dep(t, fwd[st+1][mi])
		}
	}
	for st := 1; st < p; st++ {
		link := fmt.Sprintf("linkB%d", st)
		for mi := 0; mi < m; mi++ {
			t := add(fmt.Sprintf("SB/%d/%d", st, mi), LabelInterStage, link,
				taskMeta{kind: taskSendBwd, stage: st, micro: mi, unhidden: sched.IsEpilogueBackward(st, mi)})
			it.g.Dep(bwd[st][mi], t)
			it.g.Dep(t, bwd[st-1][mi])
		}
	}
	// Data-parallel all-reduce per stage, after the stage's last backward.
	dp := make([]*simnet.Task, p)
	for st := 0; st < p; st++ {
		dp[st] = add(fmt.Sprintf("DP/%d", st), LabelDP, fmt.Sprintf("nic%d", st),
			taskMeta{kind: taskDP, stage: st})
		it.g.Dep(bwd[st][m-1], dp[st])
	}
	// Embedding synchronization: baseline is two chained phases (EMB DP
	// then EMB Sync, Fig. 4a); fused is a single phase (§6). Both involve
	// the first and last stages' NICs, after those stages' DP traffic.
	var prev *simnet.Task
	for i := range d.embPhase {
		t := add(fmt.Sprintf("EMB/%d", i), LabelEmb, "nicEmb", taskMeta{kind: taskEmb, stage: i})
		for _, before := range []*simnet.Task{bwd[0][m-1], bwd[p-1][m-1], dp[0], dp[p-1], prev} {
			if before != nil {
				it.g.Dep(before, t)
			}
		}
		prev = t
	}
	it.price(pl, d, zero)
	return it, nil
}

// price assigns every task its duration from the scenario's durations
// and the plan's edge actions; tasks whose label is in zero take none.
// It is the only place task durations are set.
func (it *iteration) price(pl *plan.Plan, d durations, zero zeroSet) {
	for i, t := range it.g.Tasks() {
		m := it.meta[i]
		var dur float64
		switch m.kind {
		case taskFwd:
			dur = d.fwd[m.stage]
		case taskBwd:
			dur = d.bwd[m.stage]
		case taskSendFwd:
			dur = d.sendFwdXfer
			if !m.unhidden {
				dur *= d.sendHide
			}
		case taskSendBwd:
			xfer, codec := d.sendBwdXfer, 0.0
			if pl.CompressBackward(m.stage, m.micro) {
				xfer, codec = d.sendBwdCmpXfer, d.sendBwdCodec
			}
			if !m.unhidden {
				xfer *= d.sendHide
			}
			dur = xfer + codec
		case taskDP:
			dur = d.dp[m.stage]
		case taskEmb:
			// A fused or DP-only plan priced on the evaluator's
			// two-phase skeleton leaves the second phase at zero.
			if m.stage < len(d.embPhase) {
				dur = d.embPhase[m.stage]
			}
		}
		t.Duration = zero.dur(t.Label, dur)
	}
}

// Simulate resolves one iteration and projects total training time. The
// graph is built and frozen once; each breakdown component is a re-solve
// of the frozen sequence with that component's tasks priced at zero.
func Simulate(s Scenario) (Result, error) {
	it, err := buildIteration(s, nil)
	if err != nil {
		return Result{}, err
	}
	seq, err := it.g.Freeze()
	if err != nil {
		return Result{}, err
	}
	iter := seq.Makespan()
	res := Result{
		IterationSec: iter,
		Days:         iter * float64(s.Iterations) / 86400,
		Exposed:      make(map[string]float64, len(AllLabels)),
		Busy:         it.g.TotalByLabel(),
	}
	for _, label := range AllLabels {
		res.Exposed[label] = iter - seq.MakespanWithout(label)
	}
	return res, nil
}

// Calibrate fits the topology's compute efficiency so the scenario's
// iteration time matches targetIterationSec (bisection; communication
// times do not depend on the efficiency, compute scales as 1/eff).
func Calibrate(s Scenario, targetIterationSec float64) (float64, error) {
	lo, hi := 0.001, 1.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		s.Topo.Efficiency = mid
		r, err := Simulate(s)
		if err != nil {
			return 0, err
		}
		if r.IterationSec > targetIterationSec {
			lo = mid // too slow → raise efficiency
		} else {
			hi = mid
		}
	}
	s.Topo.Efficiency = (lo + hi) / 2
	r, err := Simulate(s)
	if err != nil {
		return 0, err
	}
	if diff := r.IterationSec - targetIterationSec; diff > 0.05*targetIterationSec || diff < -0.05*targetIterationSec {
		return 0, fmt.Errorf("sim: calibration failed: got %.3fs want %.3fs (comm floor too high?)",
			r.IterationSec, targetIterationSec)
	}
	return (lo + hi) / 2, nil
}
