// Golden test for Plan.String() on an autotuned plan. Lives in the
// external test package because autotune imports plan: the candidate
// under test is lowered exactly the way the search engine lowers its
// winner, so the rendering the ranked-table consumers diff against is
// the rendering this file pins.
package plan_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/autotune"
	"repro/internal/plan"
)

// autotunedGolden mirrors the hand-picked Table-2 shape the search
// rediscovers: CB on with powersgd rank 16, §7 DP compression on 3 of
// 4 stages at rank 128, fused §6 embedding sync — compiled at a bucket
// budget small enough to split every stage into several buckets.
func autotunedGolden() (autotune.Candidate, plan.Grid) {
	c := autotune.Candidate{
		CB: true, CBFamily: "powersgd", CBRank: 16,
		DPStages: 3, DPFamily: "powersgd", DPRank: 128,
		FuseEmbedding: true,
	}.Normalize()
	g := plan.Grid{
		Stages: 4, DPGroups: 2, MicroBatches: 4,
		BoundaryRows: 64, BoundaryCols: 32,
		StageGradBytes: [][]int64{
			{4096, 4096, 0, 512},
			{4096, 2048},
			{2048, 2048, 1024},
			{512},
		},
		BucketBytes: 4096,
	}
	return c, g
}

// TestAutotunedPlanStringGolden pins the exact String() rendering of an
// autotuned plan, byte for byte. The rendering is part of the search's
// determinism contract: the dp-sync stage set prints in sorted (index)
// order and every field derives from the compiled plan alone, so the
// same candidate always diffs clean against this file.
func TestAutotunedPlanStringGolden(t *testing.T) {
	c, g := autotunedGolden()
	if err := c.Validate(g.Stages); err != nil {
		t.Fatalf("golden candidate invalid: %v", err)
	}
	cfg := c.Config(g.Stages, 1)
	pl, err := plan.Compile(cfg, g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	got := pl.String() + "\n"

	golden := filepath.Join("testdata", "autotuned_string.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("String() drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Recompiling the same candidate must render identically — String()
	// may not depend on map order or any other per-process state.
	pl2, err := plan.Compile(cfg, g)
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}
	if pl2.String() != pl.String() {
		t.Errorf("String() not deterministic across compiles:\n%s\nvs\n%s", pl.String(), pl2.String())
	}
}

// TestValidateMatchesCompile pins the reject-before-price contract the
// autotuner's pricing loop relies on: Validate(cfg, g) == nil exactly
// when Compile(cfg, g) succeeds.
func TestValidateMatchesCompile(t *testing.T) {
	_, g := autotunedGolden()
	cases := []autotune.Candidate{
		{},
		{CB: true, CBFamily: "powersgd", CBRank: 16},
		{CB: true, CBFamily: "topk", CBRank: 4},
		{DPStages: 2, DPFamily: "uniform8"},
		{CB: true, CBFamily: "powersgd", CBRank: 16, DPStages: 4, DPFamily: "terngrad", FuseEmbedding: true},
	}
	for _, c := range cases {
		cfg := c.Normalize().Config(g.Stages, 1)
		vErr := plan.Validate(cfg, g)
		_, cErr := plan.Compile(cfg, g)
		if (vErr == nil) != (cErr == nil) {
			t.Errorf("%s: Validate err %v, Compile err %v", c.Key(), vErr, cErr)
		}
	}
	// And a config Validate must reject: a CB rank the factory refuses.
	bad := autotune.Candidate{CB: true, CBFamily: "powersgd", CBRank: 16}.Config(g.Stages, 1)
	bad.CBRank = 0
	if err := plan.Validate(bad, g); err == nil {
		t.Error("Validate accepted CBRank=0 with CompressBackprop on")
	}
	if _, err := plan.Compile(bad, g); err == nil {
		t.Error("Compile accepted CBRank=0 with CompressBackprop on")
	}
}
