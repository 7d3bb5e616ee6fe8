package train

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/plan"
)

// TestEngineResolution pins the two enums: the zero values are the
// production engine and DP-sync mode, the flag spellings round-trip, and
// out-of-range values are rejected.
func TestEngineResolution(t *testing.T) {
	base := testConfig(core.Baseline())
	if base.Engine != EnginePipelined || base.DPSync != DPSyncOverlapped {
		t.Fatalf("zero config runs %v/%v, want pipelined/overlapped", base.Engine, base.DPSync)
	}
	for _, e := range []Engine{EnginePipelined, EngineReference} {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Fatalf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
		cfg := base
		cfg.Engine = e
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
	}
	for _, s := range []string{"auto", "serial", ""} {
		if _, err := ParseEngine(s); err == nil {
			t.Fatalf("ParseEngine(%q) accepted", s)
		}
	}

	bad := base
	bad.Engine = Engine(99)
	if bad.Validate() == nil {
		t.Fatal("out-of-range engine accepted")
	}
	bad = base
	bad.DPSync = DPSyncMode(9)
	if bad.Validate() == nil {
		t.Fatal("out-of-range DP-sync mode accepted")
	}
	bad = base
	bad.BucketBytes = -1
	if bad.Validate() == nil {
		t.Fatal("negative bucket budget accepted")
	}
}

// TestTernGradDPSyncTrains pins the previously dead quantizer family end
// to end through the trainer: -dp-alg terngrad reaches the compressed
// ring all-reduce via the registry, the model still learns, and the
// executed dp-class wire volume is below the dense baseline's.
func TestTernGradDPSyncTrains(t *testing.T) {
	c := testCorpus(t)
	opt := core.CBFESC()
	opt.CBRank = 2
	opt.DPRank = 2
	opt.DPAlg = "terngrad"
	tr, err := New(testConfig(opt), c)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if got := tr.Plan().DPFamily(); got != "terngrad" {
		t.Fatalf("plan DP family %q", got)
	}
	first := tr.TrainIteration()
	last := tr.Train(40, nil)
	if last >= first {
		t.Fatalf("terngrad DP sync did not learn: %v → %v", first, last)
	}

	// Same config with dense DP sync for the wire-volume comparison.
	dense := testConfig(core.Baseline())
	dtr, err := New(dense, c)
	if err != nil {
		t.Fatal(err)
	}
	defer dtr.Close()
	for i := 0; i < 3; i++ {
		dtr.TrainIteration()
	}
	ds, _ := dtr.CollectiveStats()
	ts, _ := tr.CollectiveStats()
	tIters, dIters := int64(tr.Iteration()), int64(dtr.Iteration())
	if ts.For(collective.ClassDP).Bytes/tIters >= ds.For(collective.ClassDP).Bytes/dIters {
		t.Fatalf("terngrad dp traffic %d/iter not below dense %d/iter",
			ts.For(collective.ClassDP).Bytes/tIters, ds.For(collective.ClassDP).Bytes/dIters)
	}
}

// TestTrainerPlanMatchesScenarioPlan asserts the trainer and the
// simulator compile literally interchangeable plans for matching shapes:
// same edge grid, same stage set, same embedding strategy.
func TestTrainerPlanMatchesScenarioPlan(t *testing.T) {
	c := testCorpus(t)
	opt := core.CBFESC()
	opt.CBRank = 2
	opt.DPRank = 2
	cfg := testConfig(opt)
	tr, err := New(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	normalized := cfg.Opt
	normalized.Seed = cfg.Seed
	grid := tr.Plan().Grid()
	if grid.Stages != cfg.Stages || grid.DPGroups != cfg.DPGroups ||
		grid.MicroBatches != cfg.MicroBatches ||
		grid.BoundaryRows != cfg.MicroBatch || grid.BoundaryCols != cfg.Model.Hidden {
		t.Fatalf("trainer compiled an unexpected grid: %+v", grid)
	}
	if grid.StageGradBytes == nil {
		t.Fatal("trainer grid carries no gradient sizes — no bucket schedule")
	}
	other := plan.MustCompile(normalized, grid)
	a, b := tr.Plan(), other
	for s := 0; s < cfg.Stages; s++ {
		if a.DPCompressed(s) != b.DPCompressed(s) {
			t.Fatalf("stage %d DP action differs", s)
		}
		for mi := 0; mi < cfg.MicroBatches; mi++ {
			if a.CompressBackward(s, mi) != b.CompressBackward(s, mi) {
				t.Fatalf("edge (%d,%d) differs", s, mi)
			}
		}
	}
	if a.Embedding() != b.Embedding() || a.String() != b.String() {
		t.Fatal("plans render differently for identical inputs")
	}
}
