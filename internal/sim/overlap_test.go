package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
)

// TestDPOverlapReadsSolvedGraph pins PredictDPOverlap as a read of the
// graph Simulate prices, over both paper models × the evaluator's
// mappings × the core presets: stage 0's DP task starts at the
// iteration's last backward, so it has no window to hide under; each
// stage's comm is its DP task's duration; and the iteration-level
// exposure is Simulate's DP breakdown component.
func TestDPOverlapReadsSolvedGraph(t *testing.T) {
	presets := map[string]core.Config{
		"baseline": core.Baseline(),
		"cb":       core.CB(),
		"cbfe":     core.CBFE(),
		"cbfesc":   core.CBFESC(),
		"naivedp":  core.NaiveDP(),
		"naivecb":  core.NaiveCB(),
	}
	for _, spec := range []cluster.GPTSpec{cluster.GPT25B, cluster.GPT83B} {
		for _, mp := range []cluster.Mapping{{TP: 8, DP: 4, PP: 4}, {TP: 8, DP: 1, PP: 4}, {TP: 8, DP: 4, PP: 1}} {
			for name, cfg := range presets {
				at := fmt.Sprintf("%s %s %s", spec.Name, mp, name)
				s := PaperScenario(spec, cfg)
				s.Map = mp
				ov, err := PredictDPOverlap(s)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				it, err := buildIteration(s, nil)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				dpDur := make([]float64, mp.PP)
				for i, task := range it.g.Tasks() {
					if m := it.meta[i]; m.kind == taskDP {
						dpDur[m.stage] = task.Duration
					}
				}
				if len(ov.Stages) != mp.PP {
					t.Fatalf("%s: %d stage rows, want %d", at, len(ov.Stages), mp.PP)
				}
				if h := ov.Stages[0].HideSec; h != 0 {
					t.Errorf("%s: stage 0 hide window %v, want 0", at, h)
				}
				for st, so := range ov.Stages {
					if so.CommSec != dpDur[st] {
						t.Errorf("%s: stage %d comm %v, DP task duration %v", at, st, so.CommSec, dpDur[st])
					}
				}
				res, err := Simulate(s)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if d := math.Abs(ov.ExposedSec - res.Exposed[LabelDP]); d > 1e-12 {
					t.Errorf("%s: exposed %v, Simulate's DP component %v (Δ %g)", at, ov.ExposedSec, res.Exposed[LabelDP], d)
				}
			}
		}
	}
}

// TestScenarioPlanCarriesBuckets pins that the simulator compiles the
// same kind of bucket schedule the trainer executes: per-layer gradient
// channels, TP-sharded sizes, default budget.
func TestScenarioPlanCarriesBuckets(t *testing.T) {
	sc := PaperScenario(cluster.GPT25B, core.CBFESC())
	pl, err := sc.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !pl.HasBuckets() {
		t.Fatal("scenario plan carries no bucket schedule")
	}
	if pl.BucketBudget() != plan.DefaultBucketBytes {
		t.Fatalf("budget %d, want default %d", pl.BucketBudget(), plan.DefaultBucketBytes)
	}
	grid := pl.Grid()
	chanBytes := sc.Spec.ParamsPerLayer() / int64(sc.Map.TP) * 2
	for st := 0; st < sc.Map.PP; st++ {
		if len(grid.StageGradBytes[st]) != sc.LayersPerStage() {
			t.Fatalf("stage %d has %d channels, want one per layer (%d)",
				st, len(grid.StageGradBytes[st]), sc.LayersPerStage())
		}
		for _, b := range grid.StageGradBytes[st] {
			if b != chanBytes {
				t.Fatalf("channel size %d, want %d", b, chanBytes)
			}
		}
		// Real-scale layer gradients exceed the budget: singleton buckets.
		if got, want := pl.BucketCount(st), sc.LayersPerStage(); got != want {
			t.Fatalf("stage %d bucket count %d, want %d", st, got, want)
		}
	}
}
