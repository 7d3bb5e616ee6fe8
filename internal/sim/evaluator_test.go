package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
)

// evaluatorConfigs spans every compressor family and technique mix the
// search space can produce, so the frozen-sequence pricing is pinned
// against full Simulate across the whole candidate space.
func evaluatorConfigs() map[string]core.Config {
	cfgs := map[string]core.Config{
		"baseline": core.Baseline(),
		"cb":       core.CB(),
		"cbfe":     core.CBFE(),
		"cbfesc":   core.CBFESC(),
		"naivedp":  core.NaiveDP(),
		"naivecb":  core.NaiveCB(),
	}
	for _, alg := range []string{"topk", "randomk", "terngrad", "signsgd", "uniform8"} {
		c := core.CBFE()
		c.CBAlg = core.CBAlgorithm(alg)
		cfgs["cb-"+alg] = c
	}
	for _, alg := range []string{"terngrad", "signsgd", "uniform8"} {
		c := core.CBFESC()
		c.DPAlg = alg
		cfgs["dp-"+alg] = c
	}
	half := core.CBFESC()
	half.SelectiveStageFraction = 0.5
	cfgs["sc-half"] = half
	return cfgs
}

// referenceSimulate is the §3 methodology written out longhand: one
// graph for the iteration and one rebuilt graph per component with that
// component's tasks priced at zero, each solved from scratch.
func referenceSimulate(t *testing.T, s Scenario) Result {
	t.Helper()
	g, err := BuildGraph(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	iter, err := g.Solve()
	if err != nil {
		t.Fatal(err)
	}
	res := Result{IterationSec: iter, Exposed: map[string]float64{}, Busy: g.TotalByLabel()}
	for _, label := range AllLabels {
		g, err := BuildGraph(s, zeroSet{label: true})
		if err != nil {
			t.Fatal(err)
		}
		mk, err := g.Solve()
		if err != nil {
			t.Fatal(err)
		}
		res.Exposed[label] = iter - mk
	}
	return res
}

// TestEvaluatorMatchesSimulate pins three routes to one iteration's
// numbers to each other bit for bit (!=, no tolerance): Evaluator.Price
// on the frozen two-phase skeleton, Simulate on the scenario's own
// frozen graph, and the per-component rebuild reference. It spans both
// paper models, three mappings, every config family and three bucket
// budgets.
func TestEvaluatorMatchesSimulate(t *testing.T) {
	for _, spec := range []cluster.GPTSpec{cluster.GPT25B, cluster.GPT83B} {
		for _, mp := range []cluster.Mapping{{TP: 8, DP: 4, PP: 4}, {TP: 8, DP: 1, PP: 4}, {TP: 8, DP: 4, PP: 1}} {
			base := PaperScenario(spec, core.Baseline())
			base.Map = mp
			ev, err := NewEvaluator(base)
			if err != nil {
				t.Fatal(err)
			}
			for name, cfg := range evaluatorConfigs() {
				for _, bucket := range []int64{0, 4 << 20, 64 << 20} {
					at := fmt.Sprintf("%s %s %s bkt=%d", spec.Name, mp, name, bucket)
					est, err := ev.Price(cfg, bucket)
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					s := base
					s.Cfg = cfg
					s.BucketBytes = bucket
					res, err := Simulate(s)
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					ref := referenceSimulate(t, s)
					if res.IterationSec != ref.IterationSec || est.IterationSec != ref.IterationSec {
						t.Errorf("%s: iteration evaluator %v, Simulate %v, reference %v",
							at, est.IterationSec, res.IterationSec, ref.IterationSec)
					}
					if !reflect.DeepEqual(res.Exposed, ref.Exposed) || !reflect.DeepEqual(res.Busy, ref.Busy) {
						t.Errorf("%s: Simulate %+v, reference %+v", at, res, ref)
					}
					for label, got := range map[string]float64{
						LabelInterStage: est.ExposedPPSec,
						LabelDP:         est.ExposedDPSec,
						LabelEmb:        est.ExposedEmbSec,
					} {
						if got != ref.Exposed[label] {
							t.Errorf("%s: exposed %s evaluator %v, reference %v", at, label, got, ref.Exposed[label])
						}
					}
				}
			}
		}
	}
}

func TestEvaluatorVolumesMatchPredictors(t *testing.T) {
	base := PaperScenario(cluster.GPT25B, core.Baseline())
	ev, err := NewEvaluator(base)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range evaluatorConfigs() {
		est, err := ev.Price(cfg, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := base
		s.Cfg = cfg
		pl, err := s.Plan()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := computeDurations(s, pl)
		// PP volume: the plan-derived inter-stage prediction over the
		// dense/compressed boundary payloads the durations were priced from.
		wantPP := PredictInterStageFromPlan(pl, d.boundaryBytes, d.cmpBoundaryBytes).Bytes
		if est.PPBytesPerReplica != wantPP {
			t.Errorf("%s: PP bytes %d want %d", name, est.PPBytesPerReplica, wantPP)
		}
		// DP volume: Thakur ring closed forms per stage.
		D := int64(s.Map.DP)
		var wantDP int64
		for st := 0; st < s.Map.PP; st++ {
			if pl.DPCompressed(st) {
				wantDP += (D - 1) * D * d.dpWireBytes[st]
			} else {
				wantDP += 2 * d.dpShardBytes[st] * (D - 1)
			}
		}
		if est.DPBytes != wantDP {
			t.Errorf("%s: DP bytes %d want %d", name, est.DPBytes, wantDP)
		}
		// Emb volume: §6 closed forms at D=4 — two-phase 4v(D−1)+2vD,
		// fused 2v(2D−1).
		v := d.embBytes
		var wantEmb int64
		if pl.Embedding() == plan.EmbFused {
			wantEmb = 2 * v * (2*D - 1)
		} else {
			wantEmb = 4*v*(D-1) + 2*v*D
		}
		if est.EmbBytes != wantEmb {
			t.Errorf("%s: emb bytes %d want %d (strategy %s)", name, est.EmbBytes, wantEmb, pl.Embedding())
		}
		// A compressed configuration must never exceed the dense volumes.
		if cfg.CompressBackprop && est.PPBytesPerReplica > wantPPDense(t, base) {
			t.Errorf("%s: compressed PP volume above dense", name)
		}
	}
}

func wantPPDense(t *testing.T, base Scenario) int64 {
	t.Helper()
	s := base
	s.Cfg = core.Baseline()
	pl, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	d := computeDurations(s, pl)
	return PredictInterStageFromPlan(pl, d.boundaryBytes, d.cmpBoundaryBytes).Bytes
}

func TestEvaluatorBucketSweepCostNeutral(t *testing.T) {
	// The analytic model prices DP sync from total volume, so the bucket
	// budget must change the compiled bucket counts but not the cost —
	// the reason the autotuner does not search the budget.
	base := PaperScenario(cluster.GPT25B, core.Baseline())
	ev, err := NewEvaluator(base)
	if err != nil {
		t.Fatal(err)
	}
	small, err := ev.Price(core.CBFESC(), 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Sim-scale channels are ~10.5 MB each, so coalescing needs a budget
	// of several channels' worth.
	large, err := ev.Price(core.CBFESC(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if small.IterationSec != large.IterationSec {
		t.Errorf("bucket budget changed cost: %v vs %v", small.IterationSec, large.IterationSec)
	}
	sum := func(b []int) int {
		var n int
		for _, c := range b {
			n += c
		}
		return n
	}
	if sum(small.Buckets) <= sum(large.Buckets) {
		t.Errorf("smaller budget should compile more buckets: %v vs %v", small.Buckets, large.Buckets)
	}
}

func TestEvaluatorReusableAcrossCandidates(t *testing.T) {
	// Pricing must be stateless: interleaving candidates cannot change
	// any candidate's estimate.
	base := PaperScenario(cluster.GPT25B, core.Baseline())
	ev, err := NewEvaluator(base)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ev.Price(core.CBFESC(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Price(core.Baseline(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Price(core.NaiveCB(), 0); err != nil {
		t.Fatal(err)
	}
	again, err := ev.Price(core.CBFESC(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.IterationSec != again.IterationSec || first.PPBytesPerReplica != again.PPBytesPerReplica ||
		first.DPBytes != again.DPBytes || first.EmbBytes != again.EmbBytes {
		t.Fatalf("pricing not reproducible: %+v vs %+v", first, again)
	}
}

func TestEvaluatorRejectsInvalidConfig(t *testing.T) {
	base := PaperScenario(cluster.GPT25B, core.Baseline())
	ev, err := NewEvaluator(base)
	if err != nil {
		t.Fatal(err)
	}
	bad := core.CB()
	bad.CBRank = 0
	if _, err := ev.Price(bad, 0); err == nil {
		t.Fatal("invalid config priced without error")
	}
}

// TestEvaluatorRejectsNegativeBucketBudget pins that a negative budget
// reaches plan.Compile, exactly as it does through Simulate, instead of
// silently pricing the default budget.
func TestEvaluatorRejectsNegativeBucketBudget(t *testing.T) {
	base := PaperScenario(cluster.GPT25B, core.Baseline())
	ev, err := NewEvaluator(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Price(core.CBFESC(), -1); err == nil {
		t.Error("Price accepted bucket budget -1")
	}
	if _, err := ev.Plan(core.CBFESC(), -1); err == nil {
		t.Error("Plan accepted bucket budget -1")
	}
	s := base
	s.BucketBytes = -1
	if _, err := Simulate(s); err == nil {
		t.Error("Simulate accepted bucket budget -1")
	}
}
