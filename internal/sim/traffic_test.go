package sim

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
)

// TestPredictInterStageIsPlanDerived pins the redesign invariant: the
// legacy PredictInterStage signature is a pure wrapper over the compiled
// plan — identical output to PredictInterStageFromPlan on a plan
// compiled for the same shape, for every Table-2 configuration.
func TestPredictInterStageIsPlanDerived(t *testing.T) {
	const dense, cmp = 3072, 512
	for _, cfg := range []core.Config{core.Baseline(), core.CB(), core.CBFE(), core.CBFESC(), core.NaiveCB()} {
		for _, g := range []struct{ stages, micros int }{{2, 4}, {4, 4}, {4, 2}, {1, 4}} {
			legacy, err := PredictInterStage(cfg, g.stages, g.micros, dense, cmp)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name(), err)
			}
			p, err := plan.Compile(cfg, plan.Grid{Stages: g.stages, DPGroups: 1, MicroBatches: g.micros})
			if err != nil {
				t.Fatal(err)
			}
			if got := PredictInterStageFromPlan(p, dense, cmp); got != legacy {
				t.Fatalf("%s pp%d m%d: wrapper %+v != plan-derived %+v", cfg.Name(), g.stages, g.micros, legacy, got)
			}
			// Messages = steps = fwd+bwd over all boundaries.
			if want := int64(2 * (g.stages - 1) * g.micros); legacy.Messages != want || legacy.Steps != want {
				t.Fatalf("%s pp%d m%d: messages %d steps %d, want %d", cfg.Name(), g.stages, g.micros, legacy.Messages, legacy.Steps, want)
			}
		}
	}
}

// TestFamilyAwarePricing pins the simulator's per-family cost model for
// the families the registry redesign makes reachable: a terngrad DP
// sync must be priced strictly between zero and the dense all-reduce,
// and a CB quantizer's backward payload must follow the family's own
// ratio (identity ships dense bytes, terngrad ~2 bits/element) rather
// than the low-rank formula.
func TestFamilyAwarePricing(t *testing.T) {
	durationsFor := func(cfg core.Config) durations {
		sc := PaperScenario(cluster.GPT25B, cfg)
		p, err := sc.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return computeDurations(sc, p)
	}

	// DP side: dense > terngrad > 0; terngrad also has no PowerSGD codec
	// term, so it must differ from the powersgd pricing.
	dense := durationsFor(core.Baseline())
	psgd := durationsFor(core.CBFESC())
	tern := core.CBFESC()
	tern.DPAlg = "terngrad"
	terngrad := durationsFor(tern)
	if terngrad.dp[0] <= dense.dp[0]/16 || terngrad.dp[0] >= dense.dp[0] {
		t.Fatalf("terngrad dp cost %v implausible vs dense %v", terngrad.dp[0], dense.dp[0])
	}
	if terngrad.dp[0] == psgd.dp[0] {
		t.Fatal("terngrad priced identically to powersgd")
	}

	// CB side: identity "compression" must be priced at the dense
	// transfer time, terngrad well below it, powersgd per the low-rank
	// formula — all without the PowerSGD codec term for the quantizers.
	cbIdentity := core.CB()
	cbIdentity.CBAlg = "identity"
	idd := durationsFor(cbIdentity)
	if idd.sendBwdCmpXfer < idd.sendBwdXfer*0.99 {
		t.Fatalf("identity CB priced below dense: %v vs %v", idd.sendBwdCmpXfer, idd.sendBwdXfer)
	}
	if idd.sendBwdCodec != 0 {
		t.Fatalf("identity CB charged a PowerSGD codec term %v", idd.sendBwdCodec)
	}
	cbTern := core.CB()
	cbTern.CBAlg = "terngrad"
	td := durationsFor(cbTern)
	if td.sendBwdCmpXfer >= idd.sendBwdCmpXfer/2 {
		t.Fatalf("terngrad CB %v not well below dense %v", td.sendBwdCmpXfer, idd.sendBwdCmpXfer)
	}
}

// TestSparseCodecPricingIsNNZAware pins the sparse-op cost term: a
// TopK backward codec is priced from the kept-element count (selection
// pass + 2k gather, k-element scatter) with no orthogonalization term,
// so it must come out far below the PowerSGD codec at the same paper
// shape, stay nonzero, and track the plan's byte-matched fraction —
// the closed forms are checked directly against the scenario's model.
func TestSparseCodecPricingIsNNZAware(t *testing.T) {
	durationsFor := func(cfg core.Config) (durations, Scenario) {
		sc := PaperScenario(cluster.GPT25B, cfg)
		p, err := sc.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return computeDurations(sc, p), sc
	}

	cbTopK := core.CB()
	cbTopK.CBAlg = core.CBTopK
	sparse, sc := durationsFor(cbTopK)
	psgd, _ := durationsFor(core.CB())

	if sparse.sendBwdCodec <= 0 {
		t.Fatal("sparse CB codec priced at zero — selection/scatter cost dropped")
	}
	if sparse.sendBwdCodec >= psgd.sendBwdCodec/10 {
		t.Fatalf("sparse codec %v not well below powersgd codec %v (no ortho term expected)",
			sparse.sendBwdCodec, psgd.sendBwdCodec)
	}

	// The closed form: k = Fraction·n·m, codec = SparseCompressTime +
	// SparseDecompressTime. Recompute from the compiled plan's spec.
	p, err := sc.Plan()
	if err != nil {
		t.Fatal(err)
	}
	n := sc.MicroBatch * sc.Spec.SeqLen
	m := sc.Spec.Hidden
	k := int(float64(n) * float64(m) * p.CBSpec(0, 1).Fraction)
	want := sc.Cost.SparseCompressTime(n, m, k) + sc.Cost.SparseDecompressTime(k)
	if sparse.sendBwdCodec != want {
		t.Fatalf("sparse codec %v != closed form %v", sparse.sendBwdCodec, want)
	}

	// nnz-awareness proper: at fixed dense shape the decompress and
	// reduce terms scale with k, not n·m.
	cost := sc.Cost
	if d1, d10 := cost.SparseDecompressTime(1000), cost.SparseDecompressTime(10000); d10-cost.SetupSec < 9*(d1-cost.SetupSec) {
		t.Fatalf("SparseDecompressTime not linear in nnz: %v vs %v", d1, d10)
	}
	if r1, r4 := cost.SparseReduceTime(5000), cost.SparseReduceTime(20000); r4 != 4*r1 {
		t.Fatalf("SparseReduceTime not linear in total nnz: %v vs %v", r1, r4)
	}
}

// TestScenarioPlanCompiles asserts every paper scenario compiles its
// plan (the same compile path BuildGraph consumes), and that the plan's
// embedding strategy matches the scenario's configuration.
func TestScenarioPlanCompiles(t *testing.T) {
	for _, cfg := range []core.Config{core.Baseline(), core.CB(), core.CBFE(), core.CBFESC()} {
		sc := PaperScenario(cluster.GPT25B, cfg)
		p, err := sc.Plan()
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		wantEmb := plan.EmbTwoPhase
		if cfg.FuseEmbedding {
			wantEmb = plan.EmbFused
		}
		if p.Embedding() != wantEmb {
			t.Fatalf("%s: embedding %v, want %v", cfg.Name(), p.Embedding(), wantEmb)
		}
		if got := p.CompressedStages(); len(got) != sc.Map.PP {
			t.Fatalf("%s: %d stage actions for PP %d", cfg.Name(), len(got), sc.Map.PP)
		}
	}
}

// TestPredictDPBucketBytesFormula pins the volume formulas on a small
// hand-checked plan.
func TestPredictDPBucketBytesFormula(t *testing.T) {
	cfg := core.Baseline()
	p := plan.MustCompile(cfg, plan.Grid{
		Stages: 1, DPGroups: 4, MicroBatches: 2,
		StageGradBytes: [][]int64{{100, 300}},
		BucketBytes:    1000,
	})
	vols, err := PredictDPBucketBytes(p, func(int, int) int64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	// One bucket of 400 B dense across D=4: 2·400·3 = 2400 aggregate.
	if len(vols) != 1 || len(vols[0]) != 1 || vols[0][0] != 2400 {
		t.Fatalf("dense bucket volume %v, want [[2400]]", vols)
	}

	// Compressed stage: payload of 50 B per rank → (D−1)·D·50 per channel.
	ccfg := core.CBFESC()
	ccfg.CBRank = 2
	ccfg.DPRank = 2
	ccfg.SelectiveStageFraction = 1 // compress every stage
	cp := plan.MustCompile(ccfg, plan.Grid{
		Stages: 1, DPGroups: 4, MicroBatches: 2,
		BoundaryRows: 8, BoundaryCols: 8,
		StageGradBytes: [][]int64{{100, 300}},
		BucketBytes:    1000,
	})
	if !cp.DPCompressed(0) {
		t.Fatal("stage 0 not selected for DP compression")
	}
	vols, err = PredictDPBucketBytes(cp, func(st, ch int) int64 {
		if ch == 1 {
			return 50
		}
		return 0 // channel 0 incompressible → dense
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(3*4*50 + 2*100*3) // compressed ch 1 + dense ch 0
	if vols[0][0] != want {
		t.Fatalf("mixed bucket volume %d, want %d", vols[0][0], want)
	}

	bare := plan.MustCompile(cfg, plan.Grid{Stages: 1, DPGroups: 2, MicroBatches: 1})
	if _, err := PredictDPBucketBytes(bare, func(int, int) int64 { return 0 }); err == nil {
		t.Fatal("plan without a bucket schedule accepted")
	}
}

// executionGrid is a four-stage, two-replica grid with one
// zero-size (§6 embedding) channel per stage.
func executionGrid() plan.Grid {
	sizes := make([][]int64, 4)
	for s := range sizes {
		sizes[s] = []int64{4096, 4096, 0, 512}
	}
	return plan.Grid{
		Stages: 4, DPGroups: 2, MicroBatches: 4,
		BoundaryRows: 64, BoundaryCols: 32,
		StageGradBytes: sizes,
	}
}

// TestPredictExecutionClosedForms pins PredictExecution to the
// per-class closed forms over hand-set probe sizes.
func TestPredictExecutionClosedForms(t *testing.T) {
	cfg := core.CBFESC()
	pl, err := plan.Compile(cfg, executionGrid())
	if err != nil {
		t.Fatal(err)
	}
	probes := Probes{
		DenseBoundaryBytes: 4096,
		CBWireBytes:        768,
		DPPayloadBytes: func(stage, ch int) int64 {
			if pl.DPCompressed(stage) && ch != 2 {
				return 100
			}
			return 0
		},
		EmbTableBytes: 5000,
	}
	pred := PredictExecution(pl, probes)
	wantPP := PredictInterStageFromPlan(pl, 4096, 768).Bytes * 2
	if pred.PPBytes != wantPP {
		t.Fatalf("PP bytes %d want %d", pred.PPBytes, wantPP)
	}
	wantBuckets, err := PredictDPBucketBytes(pl, probes.DPPayloadBytes)
	if err != nil {
		t.Fatal(err)
	}
	var wantDP int64
	for s, row := range wantBuckets {
		for b, v := range row {
			if pred.DPBuckets[s][b] != v {
				t.Fatalf("bucket (%d,%d) %d want %d", s, b, pred.DPBuckets[s][b], v)
			}
			wantDP += v
		}
	}
	if pred.DPBytes != wantDP {
		t.Fatalf("DP bytes %d want %d", pred.DPBytes, wantDP)
	}
	// D=2, fused: 2·v·(2D−1) = 2·5000·3.
	if want := int64(2 * 5000 * 3); pred.EmbBytes != want {
		t.Fatalf("emb bytes %d want %d (strategy %s)", pred.EmbBytes, want, pl.Embedding())
	}

	// Two-phase: 4v(D−1) + 2vD = 4·5000·1 + 2·5000·2.
	cfg2 := core.CBFESC()
	cfg2.FuseEmbedding = false
	pl2, err := plan.Compile(cfg2, executionGrid())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := PredictExecution(pl2, probes).EmbBytes, int64(4*5000+2*5000*2); got != want {
		t.Fatalf("two-phase emb bytes %d want %d", got, want)
	}
}
