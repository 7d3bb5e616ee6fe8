package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// tinyOptions exercises every experiment path quickly.
func tinyOptions() Options {
	return Options{Iterations: 12, EvalWindows: 80, TaskExamples: 30, Seed: 7}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig3", "table2", "fig9", "fig10", "table3", "table4",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "emb", "epilogue",
		"collective", "pipeline", "overlap", "autotune",
		"ablate-lep", "ablate-warmstart", "ablate-compressor", "ablate-schedules"}
	for _, name := range want {
		if Registry[name] == nil {
			t.Fatalf("registry missing %s", name)
		}
	}
	if len(Names()) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Names()), len(want))
	}
}

func TestAblateWarmStart(t *testing.T) {
	r, err := AblateWarmStart(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Render(), "warm start") {
		t.Fatal("warm-start ablation incomplete")
	}
}

func TestAblateSchedules(t *testing.T) {
	r, err := AblateSchedules(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, s := range []string{"GPipe", "1F1B"} {
		if !strings.Contains(out, s) {
			t.Fatalf("schedules ablation missing %s:\n%s", s, out)
		}
	}
}

func TestAblateCompressorFamilyTiny(t *testing.T) {
	r, err := AblateCompressorFamily(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, s := range []string{"powersgd", "topk", "randomk", "terngrad", "signsgd"} {
		if !strings.Contains(out, s) {
			t.Fatalf("compressor ablation missing %s:\n%s", s, out)
		}
	}
}

func TestAblateLEPGridTiny(t *testing.T) {
	r, err := AblateLEPGrid(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, s := range []string{"CB", "CB(non-LEP)", "CB(all)", "CB(naive)"} {
		if !strings.Contains(out, s) {
			t.Fatalf("LEP grid missing %s:\n%s", s, out)
		}
	}
}

func TestAutotuneExperimentTiny(t *testing.T) {
	r, err := AutotuneSearch(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.WinnerSec > r.HandpickedSec+1e-12 {
		t.Fatalf("winner predicts %.6fs, hand-picked plan %.6fs — search lost to the hand-picked point",
			r.WinnerSec, r.HandpickedSec)
	}
	out := r.Render()
	for _, s := range []string{"hand-picked CBFESC", "autotuned", "winner:", "candidate"} {
		if !strings.Contains(out, s) {
			t.Fatalf("autotune report missing %q:\n%s", s, out)
		}
	}
}

func TestCalibrationCached(t *testing.T) {
	a, err := CalibratedEfficiency()
	if err != nil {
		t.Fatal(err)
	}
	b, err := CalibratedEfficiency()
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a <= 0 || a > 1 {
		t.Fatalf("calibration unstable or implausible: %v vs %v", a, b)
	}
}

func TestScaledOpt(t *testing.T) {
	c := ScaledOpt(core.CBFESC())
	if c.CBRank != 3 || c.DPRank != 4 {
		t.Fatalf("scaled ranks wrong: CB=%d DP=%d", c.CBRank, c.DPRank)
	}
	b := ScaledOpt(core.Baseline())
	if b.CompressBackprop || b.DPCompress() {
		t.Fatal("baseline must stay uncompressed")
	}
}

func TestPipelineVolumeExperiment(t *testing.T) {
	r, err := PipelineVolumeExperiment(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, s := range []string{"exact", "cb-epilogue", "dp2×pp4", "dp4×pp2"} {
		if !strings.Contains(out, s) {
			t.Fatalf("pipeline volume table missing %s:\n%s", s, out)
		}
	}
	if r.Mismatches != 0 {
		t.Fatalf("executed pp traffic diverged from the inter-stage prediction in %d rows:\n%s",
			r.Mismatches, out)
	}
}

func TestCollectiveVolumeExperiment(t *testing.T) {
	r, err := CollectiveVolumeExperiment(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, s := range []string{"allreduce", "emb-fused", "emb-baseline"} {
		if !strings.Contains(out, s) {
			t.Fatalf("collective volume table missing %s:\n%s", s, out)
		}
	}
	// Predicted and executed factors are rendered with the same formatter;
	// any disagreement would produce distinct columns in some row. Spot-pin
	// D=4 fused: (2·4−1)/4 = 1.750 must appear as both pred and exec.
	if !strings.Contains(out, "1.750") {
		t.Fatalf("missing Eq. 16 factor at D=4:\n%s", out)
	}
	for _, row := range r.t.rows {
		if row[2] != row[3] {
			t.Fatalf("%s D=%s: predicted factor %s != executed %s", row[0], row[1], row[2], row[3])
		}
		if row[4] != row[5] {
			t.Fatalf("%s D=%s: predicted steps %s != executed %s", row[0], row[1], row[4], row[5])
		}
		if row[6] != row[7] {
			t.Fatalf("%s D=%s: predicted time %s != executed-traffic time %s", row[0], row[1], row[6], row[7])
		}
	}
}

func TestEmbCostExperiment(t *testing.T) {
	r, err := EmbCost(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	if !strings.Contains(out, "+42.86%") {
		t.Fatalf("missing D=4 improvement:\n%s", out)
	}
}

func TestEpilogueOverlapExperiment(t *testing.T) {
	r, err := EpilogueOverlap(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	if !strings.Contains(out, "epilogue-only speedup") {
		t.Fatalf("missing overlap note:\n%s", out)
	}
}

func TestFig14Experiment(t *testing.T) {
	r, err := Fig14Sensitivity(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, m := range []string{"TP8/DP4/PP4", "TP4/DP4/PP8", "TP2/DP4/PP16"} {
		if !strings.Contains(out, m) {
			t.Fatalf("missing mapping %s:\n%s", m, out)
		}
	}
}

func TestFig16Experiment(t *testing.T) {
	r, err := Fig16Scalability(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, m := range []string{"GPT-2.5B", "GPT-175B", "512"} {
		if !strings.Contains(out, m) {
			t.Fatalf("missing %s:\n%s", m, out)
		}
	}
}

func TestFig10Experiment(t *testing.T) {
	r, err := Fig10Breakdown(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Render(), "interstage") {
		t.Fatal("breakdown missing components")
	}
}

func TestFig11Experiment(t *testing.T) {
	r, err := Fig11Conditions(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Sends == 0 {
		t.Fatal("no compressed sends observed")
	}
	if r.CosineAbs > 0.6 {
		t.Fatalf("cosine similarity %v too large — Eq. 14 violated", r.CosineAbs)
	}
}

func TestFig12Experiment(t *testing.T) {
	r, err := Fig12Memory(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	if !strings.Contains(out, "CB+LEP") || !strings.Contains(out, "Baseline") {
		t.Fatalf("memory table incomplete:\n%s", out)
	}
}

func TestFig15Experiment(t *testing.T) {
	r, err := Fig15Throughput(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	if !strings.Contains(out, "GPT-175B") {
		t.Fatalf("throughput table incomplete:\n%s", out)
	}
}

func TestTable2ExperimentTiny(t *testing.T) {
	r, err := Table2(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Timing) != 2 || len(r.Quality) != 4 {
		t.Fatalf("Table2 shape wrong: %d timings %d qualities", len(r.Timing), len(r.Quality))
	}
	// Timing speedups must be monotone per model regardless of quality
	// run length.
	for _, tt := range r.Timing {
		for i := 1; i < len(tt.Rows); i++ {
			if tt.Rows[i].IterationSec >= tt.Rows[i-1].IterationSec {
				t.Fatalf("%s: row %d not faster than row %d", tt.Model, i, i-1)
			}
		}
	}
}

func TestTable4ExperimentTiny(t *testing.T) {
	r, err := Table4LEP(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Configs) != 4 {
		t.Fatalf("want 4 configs, got %v", r.Configs)
	}
	// The two non-LEP variants must be distinct columns (regression test
	// for a name-collision bug).
	seen := map[string]bool{}
	for _, c := range r.Configs {
		if seen[c] {
			t.Fatalf("duplicate config column %q", c)
		}
		seen[c] = true
	}
	if len(r.Tasks) != 5 {
		t.Fatalf("want 5 tasks, got %v", r.Tasks)
	}
}

func TestFig9ExperimentTiny(t *testing.T) {
	r, err := Fig9Curves(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Iterations) == 0 {
		t.Fatal("no curve points")
	}
	for name, series := range r.Series {
		if len(series) != len(r.Iterations) {
			t.Fatalf("series %s length %d != %d points", name, len(series), len(r.Iterations))
		}
	}
}

func TestFig3ExperimentTiny(t *testing.T) {
	r, err := Fig3Motivation(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Quality) != 5 {
		t.Fatalf("want 5 quality rows, got %d", len(r.Quality))
	}
	out := r.Render()
	if !strings.Contains(out, "CB(naive)") || !strings.Contains(out, "topk") {
		t.Fatalf("Fig. 3 missing straw-man configs:\n%s", out)
	}
}

func TestFig13ExperimentTiny(t *testing.T) {
	r, err := Fig13Tradeoff(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.StageSweep) != 5 || len(r.RankSweep) != 4 {
		t.Fatalf("sweep sizes %d/%d", len(r.StageSweep), len(r.RankSweep))
	}
	// Stage sweep speedups must be non-decreasing in the fraction.
	for i := 1; i < len(r.StageSweep); i++ {
		if r.StageSweep[i].Speedup < r.StageSweep[i-1].Speedup-1e-9 {
			t.Fatalf("stage sweep speedup not monotone at %s", r.StageSweep[i].Label)
		}
	}
	// Rank 512 must be slower than rank 128 (Fig. 13 middle).
	if r.RankSweep[3].Speedup >= r.RankSweep[2].Speedup {
		t.Fatalf("rank 512 speedup %.3f should drop below rank 128's %.3f",
			r.RankSweep[3].Speedup, r.RankSweep[2].Speedup)
	}
}
