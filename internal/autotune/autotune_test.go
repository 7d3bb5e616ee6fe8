package autotune

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sim"
)

func TestCandidateNormalizeCollapsesEquivalents(t *testing.T) {
	a := Candidate{CB: false, CBFamily: "powersgd", CBRank: 16, DPStages: 0, DPFamily: "terngrad", DPRank: 9}
	if a.Normalize() != (Candidate{}) {
		t.Fatalf("off-technique fields not dropped: %+v", a.Normalize())
	}
	b := Candidate{CB: true, CBFamily: "lowrank", CBRank: 16}
	if got := b.Normalize().CBFamily; got != "powersgd" {
		t.Fatalf("alias not normalized: %q", got)
	}
	c := Candidate{CB: true, CBFamily: "terngrad", CBRank: 16}
	if got := c.Normalize().CBRank; got != 0 {
		t.Fatalf("quantizer rank not dropped: %d", got)
	}
	if a.Key() != (Candidate{}).Key() {
		t.Fatal("equivalent candidates have different keys")
	}
}

func TestCandidateConfigMapsPrefixExactly(t *testing.T) {
	for stages := 1; stages <= 8; stages++ {
		for k := 0; k <= stages; k++ {
			c := Candidate{DPStages: k, DPFamily: "powersgd", DPRank: 8}
			cfg := c.Config(stages, 1)
			sel := cfg.CompressedStages(stages)
			var n int
			for _, on := range sel {
				if on {
					n++
				}
			}
			if n != k {
				t.Fatalf("stages=%d k=%d: fraction %v selects %d stages", stages, k, cfg.SelectiveStageFraction, n)
			}
		}
	}
}

func TestEnumerateDeterministicAndValid(t *testing.T) {
	sp := DefaultSpace(4)
	all := sp.Enumerate()
	if len(all) == 0 {
		t.Fatal("empty enumeration")
	}
	// CB menu: off + powersgd×3 + topk×3 + terngrad + uniform8 = 9.
	// DP menu: dense + 4 prefixes × (powersgd×3 + terngrad + uniform8) = 21.
	// × emb 2 = 378.
	if want := 9 * 21 * 2; len(all) != want {
		t.Fatalf("enumerated %d candidates, want %d", len(all), want)
	}
	seen := make(map[string]bool, len(all))
	for _, c := range all {
		if c != c.Normalize() {
			t.Fatalf("enumeration emitted non-canonical candidate %+v", c)
		}
		if err := c.Validate(sp.Stages); err != nil {
			t.Fatalf("enumeration emitted invalid candidate %s: %v", c.Key(), err)
		}
		if seen[c.Key()] {
			t.Fatalf("duplicate key %s", c.Key())
		}
		seen[c.Key()] = true
	}
	again := sp.Enumerate()
	for i := range all {
		if all[i] != again[i] {
			t.Fatal("enumeration order not deterministic")
		}
	}
}

// fakePricer produces deterministic synthetic estimates from the
// candidate's identity, so search behaviour is golden-testable without
// depending on the simulator's float output.
type fakePricer struct {
	stages int
	priced []string
	// fail, when set, makes Price reject the configs it matches; failed
	// records each distinct rejected config.
	fail   func(core.Config) bool
	failed map[string]bool
}

func (f *fakePricer) Price(cfg core.Config, bucketBytes int64) (sim.Estimate, error) {
	if f.fail != nil && f.fail(cfg) {
		if f.failed == nil {
			f.failed = make(map[string]bool)
		}
		f.failed[fmt.Sprintf("%+v", cfg)] = true
		return sim.Estimate{}, fmt.Errorf("fake: %s rejected", cfg.Name())
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.Name()))
	h.Write([]byte{byte(cfg.CBRank), byte(cfg.DPRank), byte(bucketBytes >> 16)})
	v := h.Sum64()
	est := sim.Estimate{
		IterationSec:      1 + float64(v%1000)/1000,
		ExposedPPSec:      float64(v%7) / 100,
		ExposedDPSec:      float64(v%11) / 100,
		ExposedEmbSec:     float64(v%5) / 100,
		PPBytesPerReplica: int64(v % 1e6),
		DPBytes:           int64(v % 2e6),
		EmbBytes:          int64(v % 3e5),
	}
	f.priced = append(f.priced, cfg.Name())
	return est, nil
}

func (f *fakePricer) Plan(cfg core.Config, bucketBytes int64) (*plan.Plan, error) {
	return plan.Compile(cfg, fuzzGrid(f.stages, bucketBytes))
}

func fuzzGrid(stages int, bucketBytes int64) plan.Grid {
	sizes := make([][]int64, stages)
	for s := range sizes {
		sizes[s] = []int64{4096, 4096, 0, 512}
	}
	return plan.Grid{
		Stages: stages, DPGroups: 2, MicroBatches: 4,
		BoundaryRows: 64, BoundaryCols: 32,
		StageGradBytes: sizes, BucketBytes: bucketBytes,
	}
}

func goldenSpace() Space {
	return Space{
		Stages:     2,
		CBFamilies: []string{"powersgd", "uniform8"},
		CBRanks:    []int{4},
		DPFamilies: []string{"powersgd"},
		DPRanks:    []int{8},
	}
}

// TestSearchTableGolden pins the full ranked table for a small space on
// the fake pricer: same space + same seed must reproduce the file
// byte-for-byte. Regenerate with UPDATE_GOLDEN=1 go test ./internal/autotune.
func TestSearchTableGolden(t *testing.T) {
	res, err := Search(&fakePricer{stages: 2}, goldenSpace(), DefaultQualityModel(), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Table()
	path := filepath.Join("testdata", "golden_table.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run UPDATE_GOLDEN=1 go test ./internal/autotune to create)", err)
	}
	if got != string(want) {
		t.Fatalf("ranked table drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSearchDeterministicAcrossRuns(t *testing.T) {
	run := func(seed int64, opts Options) string {
		opts.Seed = seed
		res, err := Search(&fakePricer{stages: 2}, goldenSpace(), DefaultQualityModel(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Table()
	}
	if run(3, Options{}) != run(3, Options{}) {
		t.Fatal("exhaustive search not deterministic")
	}
	// Force anneal mode by shrinking the exhaustive limit.
	annealOpts := Options{ExhaustiveLimit: 1, AnnealEvals: 200}
	a, b := run(5, annealOpts), run(5, annealOpts)
	if a != b {
		t.Fatalf("anneal not deterministic for same seed:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "anneal") {
		t.Fatalf("expected anneal mode, got:\n%s", a)
	}
}

// TestSearchCountsEachCandidateOnce pins the accounting in both modes:
// the annealer proposes the same candidates many times over, yet every
// distinct candidate counts once — Enumerated and Admitted match the
// exhaustive run, and Rejected is the candidates outside the budget
// plus the distinct pricing failures.
func TestSearchCountsEachCandidateOnce(t *testing.T) {
	sp, qm := goldenSpace(), DefaultQualityModel()
	failing := func(cfg core.Config) bool { return cfg.CBAlg == "uniform8" }
	run := func(opts Options) (*Result, int) {
		pr := &fakePricer{stages: sp.Stages, fail: failing}
		res, err := Search(pr, sp, qm, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, len(pr.failed)
	}
	exh, exhFailed := run(Options{Seed: 5})
	ann, annFailed := run(Options{Seed: 5, ExhaustiveLimit: 1})
	if exh.Mode != "exhaustive" || ann.Mode != "anneal" {
		t.Fatalf("modes %s/%s, want exhaustive/anneal", exh.Mode, ann.Mode)
	}
	if exhFailed == 0 {
		t.Fatal("no admitted candidate fails pricing: the failure path is untested")
	}
	if exh.Priced+exhFailed != exh.Admitted {
		t.Errorf("exhaustive: %d priced + %d failed != %d admitted", exh.Priced, exhFailed, exh.Admitted)
	}
	if ann.Enumerated != exh.Enumerated || ann.Admitted != exh.Admitted {
		t.Errorf("anneal counts %d enumerated / %d admitted, exhaustive %d / %d",
			ann.Enumerated, ann.Admitted, exh.Enumerated, exh.Admitted)
	}
	for _, c := range []struct {
		res    *Result
		failed int
	}{{exh, exhFailed}, {ann, annFailed}} {
		if want := c.res.Enumerated - c.res.Admitted + c.failed; c.res.Rejected != want {
			t.Errorf("%s: %d rejected, want %d outside the budget + %d distinct pricing failures",
				c.res.Mode, c.res.Rejected, c.res.Enumerated-c.res.Admitted, c.failed)
		}
	}
}

func TestSearchNeverPricesOverBudget(t *testing.T) {
	pr := &fakePricer{stages: 4}
	qm := DefaultQualityModel()
	res, err := Search(pr, DefaultSpace(4), qm, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Ranked {
		if row.LossPPL > qm.Budget+1e-12 {
			t.Fatalf("priced candidate %s above budget: %v", row.Candidate.Key(), row.LossPPL)
		}
	}
	if res.Priced != res.Admitted {
		t.Fatalf("priced %d != admitted %d (fake pricer never fails)", res.Priced, res.Admitted)
	}
	if res.Priced+res.Rejected != res.Enumerated {
		t.Fatalf("accounting off: %d priced + %d rejected != %d enumerated", res.Priced, res.Rejected, res.Enumerated)
	}
	// The hand-picked Table-2 shape must be admitted (it's the paper's
	// own quality-validated plan).
	hand := Candidate{CB: true, CBFamily: "powersgd", CBRank: 16, DPStages: 3, DPFamily: "powersgd", DPRank: 128, FuseEmbedding: true}
	if !qm.Admits(hand, 4) {
		t.Fatalf("quality model rejects the paper's hand-picked plan (loss %v)", qm.EstimateLoss(hand, 4))
	}
}

// TestSearchWinnerBeatsHandPicked runs the real frozen-sequence
// evaluator over the default space and checks the tentpole property:
// the winner's predicted cost is ≤ the hand-picked Table-2 plan's.
func TestSearchWinnerBeatsHandPicked(t *testing.T) {
	base := sim.PaperScenario(cluster.GPT25B, core.Baseline())
	ev, err := sim.NewEvaluator(base)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(ev, DefaultSpace(base.Map.PP), DefaultQualityModel(), Options{Seed: 1, Top: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "exhaustive" {
		t.Fatalf("default space should enumerate exhaustively, got %s", res.Mode)
	}
	hand, err := ev.Price(core.CBFESC(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner.Estimate.IterationSec > hand.IterationSec {
		t.Fatalf("winner %s predicted %.4fs, hand-picked CBFESC %.4fs",
			res.Winner.Candidate.Key(), res.Winner.Estimate.IterationSec, hand.IterationSec)
	}
	if res.WinnerPlan == nil {
		t.Fatal("no winner plan")
	}
	if got, want := res.WinnerPlan.Config(), res.Winner.Config; got != want {
		t.Fatalf("winner plan config %+v != ranked config %+v", got, want)
	}
	if len(res.Ranked) != 10 {
		t.Fatalf("Top=10 kept %d rows", len(res.Ranked))
	}
	if res.Ranked[0].Candidate != res.Winner.Candidate {
		t.Fatal("winner not first in table")
	}
	for i := 1; i < len(res.Ranked); i++ {
		if res.Ranked[i].Estimate.IterationSec < res.Ranked[i-1].Estimate.IterationSec {
			t.Fatal("table not sorted by predicted cost")
		}
	}
}

func TestFitQualityModelRecoversCoefficients(t *testing.T) {
	points := []QualityPoint{
		// CB powersgd rank 16 measured at 0.08 → base 0.08.
		{Candidate{CB: true, CBFamily: "powersgd", CBRank: 16}, 0.08},
		// Same family at rank 8 measured at 0.16 → implied base 0.08 again.
		{Candidate{CB: true, CBFamily: "powersgd", CBRank: 8}, 0.16},
		// CB + DP at full depth, ref rank: ΔPPL 0.08 (CB) + 0.12 (DP).
		{Candidate{CB: true, CBFamily: "powersgd", CBRank: 16, DPStages: 4, DPFamily: "powersgd", DPRank: 128}, 0.20},
		// A compressed run that measured better than baseline clamps to 0.
		{Candidate{CB: true, CBFamily: "uniform8"}, -0.03},
	}
	qm := FitQualityModel(points, 4)
	if got := qm.CBBase["powersgd"]; got < 0.079 || got > 0.081 {
		t.Fatalf("CB powersgd base %v want 0.08", got)
	}
	if got := qm.DPBase["powersgd"]; got < 0.119 || got > 0.121 {
		t.Fatalf("DP powersgd base %v want 0.12", got)
	}
	if got := qm.CBBase["uniform8"]; got != 0 {
		t.Fatalf("negative measurement not clamped: %v", got)
	}
	// Untouched families keep the defaults.
	if qm.CBBase["topk"] != DefaultQualityModel().CBBase["topk"] {
		t.Fatal("unmeasured family coefficient changed")
	}
}
