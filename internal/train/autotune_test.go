package train

import (
	"testing"

	"repro/internal/autotune"
	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Loop-closing acceptance for the plan autotuner: tune at paper scale
// on the grid's DP×PP topology, execute the winner on the real
// executor, and pin every executed wire volume against the autotuner's
// prediction at tolerance zero.

// autotuneGrids are the executor shapes the criterion covers: the
// Table-2 pipeline and its transpose.
var autotuneGrids = []struct{ dp, pp int }{{2, 4}, {4, 2}}

// paperPricer builds the frozen-sequence evaluator for a paper-scale
// scenario remapped to the grid's DP×PP (TP8 keeps tensor-parallel
// groups inside the paper cluster's nodes).
func paperPricer(t *testing.T, dp, pp int) *sim.Evaluator {
	t.Helper()
	base := sim.PaperScenario(cluster.GPT25B, core.Baseline())
	base.Map = cluster.Mapping{TP: 8, DP: dp, PP: pp}
	ev, err := sim.NewEvaluator(base)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// permissiveQuality admits the whole space. Quality gating has its own
// tests in autotune; here the search must be free to pick any winner so
// the execution crosscheck covers whatever shape wins.
func permissiveQuality() autotune.QualityModel {
	qm := autotune.DefaultQualityModel()
	qm.Budget = 1000
	return qm
}

// scaledWinner lowers a paper-scale winner onto the test-scale model:
// the plan shape (families, §7 prefix depth, embedding strategy)
// carries over verbatim; rank-responsive ranks rescale to the 8×16
// test boundary the way the scaled presets do.
func scaledWinner(c autotune.Candidate) autotune.Candidate {
	if c.CB && c.CBRank > 0 {
		c.CBRank = 2
	}
	if c.DPStages > 0 && c.DPRank > 0 {
		c.DPRank = 2
	}
	return c
}

func TestAutotuneWinnerExecutesAsPredicted(t *testing.T) {
	c := testCorpus(t)
	for _, g := range autotuneGrids {
		sp := autotune.DefaultSpace(g.pp)
		opts := autotune.Options{Seed: 7, Top: 10}
		res, err := autotune.Search(paperPricer(t, g.dp, g.pp), sp, permissiveQuality(), opts)
		if err != nil {
			t.Fatal(err)
		}

		// The winner must not lose to the hand-picked Table-2 plan — it
		// is in the space, so at worst the search rediscovers it.
		hand, err := paperPricer(t, g.dp, g.pp).Price(core.CBFESC(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Winner.Estimate.IterationSec > hand.IterationSec+1e-12 {
			t.Errorf("dp%d×pp%d: winner %s predicts %.6fs, hand-picked CBFESC %.6fs",
				g.dp, g.pp, res.Winner.Candidate.Key(), res.Winner.Estimate.IterationSec, hand.IterationSec)
		}

		// Same seed, same ranked table — determinism end to end.
		res2, err := autotune.Search(paperPricer(t, g.dp, g.pp), sp, permissiveQuality(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table() != res2.Table() {
			t.Errorf("dp%d×pp%d: same seed produced different ranked tables:\n%s\nvs\n%s",
				g.dp, g.pp, res.Table(), res2.Table())
		}

		// Execute the winner. The tiny bucket budget forces multi-bucket
		// schedules so the per-bucket crosscheck is non-degenerate.
		cfg := gridConfig(scaledWinner(res.Winner.Candidate).Config(g.pp, 3), g.dp, g.pp, 4)
		cfg.BucketBytes = 512
		tr, err := New(cfg, c)
		if err != nil {
			t.Fatalf("dp%d×pp%d: winner %s failed to build trainer: %v", g.dp, g.pp, res.Winner.Candidate.Key(), err)
		}
		t.Cleanup(tr.Close)

		before, _ := tr.CollectiveStats()
		const iters = 3
		for i := 0; i < iters; i++ {
			tr.TrainIteration()
		}

		pred := sim.PredictExecution(tr.Plan(), tr.Probes())

		// Executed wire volumes == prediction, tolerance zero.
		after, _ := tr.CollectiveStats()
		d := after.Sub(before)
		for _, chk := range []struct {
			class collective.Class
			per   int64
		}{
			{collective.ClassPP, pred.PPBytes},
			{collective.ClassDP, pred.DPBytes},
			{collective.ClassEmb, pred.EmbBytes},
		} {
			if got, want := d.For(chk.class).Bytes, chk.per*iters; got != want {
				t.Errorf("dp%d×pp%d winner %s: executed %v bytes %d over %d iters, predicted %d",
					g.dp, g.pp, res.Winner.Candidate.Key(), chk.class, got, iters, want)
			}
		}

		// Per-bucket volumes (last iteration) == prediction, bucket by
		// bucket.
		exec, ok := tr.ExecutedDPBuckets()
		if want := g.dp > 1; ok != want {
			t.Fatalf("dp%d×pp%d: bucket log ok=%v, want %v", g.dp, g.pp, ok, want)
		}
		if ok {
			if len(exec) != len(pred.DPBuckets) {
				t.Fatalf("dp%d×pp%d: %d executed stages, %d predicted", g.dp, g.pp, len(exec), len(pred.DPBuckets))
			}
			for s := range pred.DPBuckets {
				if len(exec[s]) != len(pred.DPBuckets[s]) {
					t.Fatalf("dp%d×pp%d: stage %d has %d executed buckets, prediction says %d",
						g.dp, g.pp, s, len(exec[s]), len(pred.DPBuckets[s]))
				}
				for bi := range pred.DPBuckets[s] {
					if exec[s][bi] != pred.DPBuckets[s][bi] {
						t.Errorf("dp%d×pp%d: stage %d bucket %d executed %d B, predicted %d B",
							g.dp, g.pp, s, bi, exec[s][bi], pred.DPBuckets[s][bi])
					}
				}
			}
		}
	}
}

// TestTrainerProbesMatchReconcilerForPresets pins the trainer's probes
// to its executed traffic across the compression presets, not just the
// search winner: one iteration moves exactly the Predicted*Bytes that
// sim.PredictExecution prices over tr.Probes() — the accounting the
// trace reconciliation reports.
func TestTrainerProbesMatchReconcilerForPresets(t *testing.T) {
	c := testCorpus(t)
	for name, opt := range overlapOpts() {
		cfg := gridConfig(opt, 2, 4, 4)
		cfg.BucketBytes = 512
		tr, err := New(cfg, c)
		if err != nil {
			t.Fatal(err)
		}
		before, _ := tr.CollectiveStats()
		tr.TrainIteration()
		after, _ := tr.CollectiveStats()
		d := after.Sub(before)
		for _, chk := range []struct {
			class collective.Class
			want  int64
		}{
			{collective.ClassPP, tr.PredictedPPBytes()},
			{collective.ClassDP, tr.PredictedDPBytes()},
			{collective.ClassEmb, tr.PredictedEmbBytes()},
		} {
			if got := d.For(chk.class).Bytes; got != chk.want {
				t.Errorf("%s: executed %v bytes %d, predicted %d", name, chk.class, got, chk.want)
			}
		}
		tr.Close()
	}
}

// TestPredictedBytesIndependentOfEngine pins the predictions to the plan
// and the model's shapes alone: a reference trainer, which has no
// collective runtime, reports the same Predicted*Bytes as a pipelined
// one built from the same config, under every §6 embedding strategy.
func TestPredictedBytesIndependentOfEngine(t *testing.T) {
	c := testCorpus(t)
	twoPhase := scaledCB()
	fused := scaledCB()
	fused.FuseEmbedding = true
	for _, tc := range []struct {
		name   string
		opt    core.Config
		dp, pp int
		want   plan.EmbeddingStrategy
	}{
		{"1x1", core.Baseline(), 1, 1, plan.EmbNone},
		{"dp-only", core.Baseline(), 2, 1, plan.EmbDPOnly},
		{"two-phase", twoPhase, 2, 2, plan.EmbTwoPhase},
		{"fused", fused, 2, 2, plan.EmbFused},
	} {
		var got [2][3]int64
		for i, eng := range []Engine{EnginePipelined, EngineReference} {
			cfg := gridConfig(tc.opt, tc.dp, tc.pp, 4)
			cfg.Engine = eng
			tr, err := New(cfg, c)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if s := tr.Plan().Embedding(); s != tc.want {
				t.Fatalf("%s: embedding strategy %s, want %s", tc.name, s, tc.want)
			}
			got[i] = [3]int64{tr.PredictedPPBytes(), tr.PredictedDPBytes(), tr.PredictedEmbBytes()}
			tr.Close()
		}
		if got[0] != got[1] {
			t.Errorf("%s: pipelined predicts pp/dp/emb %v, reference %v", tc.name, got[0], got[1])
		}
	}
}
