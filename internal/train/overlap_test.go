package train

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// overlapOpts are the compression configurations of the overlap
// acceptance criterion: exact, compressed backprop, and the full
// Optimus-CC configuration (whose §7 selection compresses DP sync).
func overlapOpts() map[string]core.Config {
	full := core.CBFESC()
	full.CBRank = 2
	full.DPRank = 2
	return map[string]core.Config{
		"baseline": core.Baseline(),
		"cb":       scaledCB(),
		"cbfesc":   full,
	}
}

// TestOverlappedDPSyncBitIdentical pins the tentpole acceptance
// criterion: bucketed DP synchronization issued during the backward pass
// — async handles in flight while other stages still compute — is
// bit-identical (tolerance 0) to the blocking barrier and to the fully
// serial reference oracle, across the acceptance grids and compression
// configurations. Deliberately tiny bucket budgets (see
// smallBucketBudgets) force multi-bucket schedules so the overlap
// machinery is genuinely exercised at test scale.
func TestOverlappedDPSyncBitIdentical(t *testing.T) {
	c := testCorpus(t)
	for name, opt := range overlapOpts() {
		for _, g := range executorGrids {
			for _, budget := range smallBucketBudgets {
				mk := func(mode DPSyncMode, eng Engine) *Trainer {
					cfg := gridConfig(opt, g.dp, g.pp, g.micros)
					cfg.Engine = eng
					cfg.DPSync = mode
					cfg.BucketBytes = budget
					tr, err := New(cfg, c)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(tr.Close)
					return tr
				}
				over := mk(DPSyncOverlapped, EnginePipelined)
				block := mk(DPSyncBlocking, EnginePipelined)
				ref := mk(DPSyncOverlapped, EngineReference)
				if g.dp > 1 && over.ov == nil {
					t.Fatalf("%s dp%d×pp%d: overlap not active", name, g.dp, g.pp)
				}
				for i := 0; i < 3; i++ {
					lo, lb, lr := over.TrainIteration(), block.TrainIteration(), ref.TrainIteration()
					if lo != lb || lo != lr {
						t.Fatalf("%s dp%d×pp%d m=%d iter %d: losses diverged (overlapped %v, blocking %v, reference %v)",
							name, g.dp, g.pp, g.micros, i, lo, lb, lr)
					}
				}
				assertSameWeights(t, over, block, name+"/overlapped-vs-blocking")
				assertSameWeights(t, over, ref, name+"/overlapped-vs-reference")
			}
		}
	}
}

// smallBucketBudgets are the bucket budgets the DP-sync oracles run at,
// at ElemBytes = 2 and the test model's 16-wide layers: 512 B closes a
// bucket at every 16×16 matrix, so buckets are single compressed
// matrices or runs of dense vectors (up to six per stage); 600 B leaves
// room for a matrix plus vectors, so a compressed stage gets at least
// three buckets on the DP4×PP2 grid, most of them mixing dense and
// compressed channels — one ring and one payload gather in one
// operation.
var smallBucketBudgets = []int64{512, 600}

// dpSyncClosedForm returns the messages and synchronized steps one
// iteration's DP sync must put on the dp class, from the plan and the
// gradient shapes alone: per bucket, D·2(D−1) messages and 2(D−1) steps
// when it holds a dense channel, plus D(D−1) and D−1 when it holds a
// compressed one — whatever the channel count.
func dpSyncClosedForm(tr *Trainer) (messages, steps int64) {
	d := int64(tr.cfg.DPGroups)
	if d <= 1 {
		return 0, 0
	}
	for s := 0; s < tr.cfg.Stages; s++ {
		for _, b := range tr.Plan().Buckets(s) {
			var dense, comp bool
			for _, gi := range b.Channels {
				if tr.Plan().DPCompressed(s) && compressibleShape(tr.grads[0][s][gi]) {
					comp = true
				} else {
					dense = true
				}
			}
			if dense {
				messages += d * 2 * (d - 1)
				steps += 2 * (d - 1)
			}
			if comp {
				messages += d * (d - 1)
				steps += d - 1
			}
		}
	}
	return messages, steps
}

// probeDPPayloadBytes returns the compressed payload size of gradient
// channel (s, gi), or 0 where the channel stays dense (incompressible
// shapes, unselected stages) — the shape-determined quantity
// sim.PredictDPBucketBytes needs from the caller.
func probeDPPayloadBytes(t *testing.T, tr *Trainer, s, gi int) int64 {
	t.Helper()
	g := tr.grads[0][s][gi]
	if !tr.Plan().DPCompressed(s) || !compressibleShape(g) {
		return 0
	}
	probe := tensor.New(g.Rows, g.Cols)
	for i := range probe.Data {
		probe.Data[i] = float64(i%7) / 7
	}
	c, err := compress.Build(tr.Plan().DPSpec(s, 0, gi))
	if err != nil {
		t.Fatal(err)
	}
	return c.Compress(probe).WireBytes()
}

// TestExecutedDPBucketsMatchPlanAndSim pins the per-bucket volume
// reconciliation: the wire bytes each bucket's collectives actually
// moved (tallied op-by-op on the transport sends) equal the simulator's
// plan-derived prediction exactly, on both sync modes and both runtime
// engines, and the transport's dp-class total equals their sum — so
// executed == plan == sim, bucket by bucket and in aggregate. Messages
// and steps, which bucketing does change, must equal the per-bucket
// closed form.
func TestExecutedDPBucketsMatchPlanAndSim(t *testing.T) {
	c := testCorpus(t)
	for name, opt := range overlapOpts() {
		for _, g := range executorGrids {
			for _, mode := range []DPSyncMode{DPSyncOverlapped, DPSyncBlocking} {
				for _, budget := range smallBucketBudgets {
					cfg := gridConfig(opt, g.dp, g.pp, g.micros)
					cfg.DPSync = mode
					cfg.BucketBytes = budget
					tr, err := New(cfg, c)
					if err != nil {
						t.Fatal(err)
					}
					before, _ := tr.CollectiveStats()
					tr.TrainIteration()

					exec, ok := tr.ExecutedDPBuckets()
					if want := g.dp > 1; ok != want {
						t.Fatalf("%s %v dp%d×pp%d: bucket log ok=%v, want %v", name, mode, g.dp, g.pp, ok, want)
					}
					if !ok {
						tr.Close()
						continue
					}
					pred, err := sim.PredictDPBucketBytes(tr.Plan(), func(s, ch int) int64 {
						return probeDPPayloadBytes(t, tr, s, ch)
					})
					if err != nil {
						t.Fatal(err)
					}
					var total int64
					for s := range pred {
						if len(exec[s]) != len(pred[s]) {
							t.Fatalf("%s %v: stage %d has %d executed buckets, plan says %d",
								name, mode, s, len(exec[s]), len(pred[s]))
						}
						for bi := range pred[s] {
							if exec[s][bi] != pred[s][bi] {
								t.Fatalf("%s %v dp%d×pp%d: stage %d bucket %d executed %d B, predicted %d B",
									name, mode, g.dp, g.pp, s, bi, exec[s][bi], pred[s][bi])
							}
							total += exec[s][bi]
						}
					}
					// The dp link class carries exactly the buckets' sum.
					after, _ := tr.CollectiveStats()
					dp := after.Sub(before).For(collective.ClassDP)
					if dp.Bytes != total {
						t.Fatalf("%s %v: dp-class transport bytes %d != Σ buckets %d", name, mode, dp.Bytes, total)
					}
					if msgs, steps := dpSyncClosedForm(tr); dp.Messages != msgs || dp.Steps != steps {
						t.Fatalf("%s %v dp%d×pp%d: dp class took %d messages in %d steps, the per-bucket closed form says %d in %d",
							name, mode, g.dp, g.pp, dp.Messages, dp.Steps, msgs, steps)
					}
					tr.Close()
				}
			}
		}
	}
}

// TestOverlapBucketScheduleNonTrivial guards the acceptance setup
// itself: at the test scale with the tiny budget, at least one stage
// must split into more than one bucket — otherwise the tests above
// wouldn't exercise multi-bucket issue at all.
func TestOverlapBucketScheduleNonTrivial(t *testing.T) {
	cfg := gridConfig(core.Baseline(), 2, 4, 4)
	cfg.BucketBytes = smallBucketBudgets[0]
	tr, err := New(cfg, testCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	multi := false
	for s := 0; s < cfg.Stages; s++ {
		if tr.Plan().BucketCount(s) > 1 {
			multi = true
		}
	}
	if !multi {
		t.Fatal("no stage has more than one bucket — acceptance tests degenerate")
	}

	// The second budget must produce what its comment promises: a
	// compressed stage with ≥ 3 buckets, and a bucket mixing dense and
	// compressed channels.
	cfg = gridConfig(overlapOpts()["cbfesc"], 4, 2, 4)
	cfg.BucketBytes = smallBucketBudgets[1]
	mixedTr, err := New(cfg, testCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	defer mixedTr.Close()
	var deep, mixed bool
	for s := 0; s < cfg.Stages; s++ {
		if !mixedTr.Plan().DPCompressed(s) {
			continue
		}
		buckets := mixedTr.Plan().Buckets(s)
		deep = deep || len(buckets) >= 3
		for _, b := range buckets {
			var dense, comp bool
			for _, gi := range b.Channels {
				if compressibleShape(mixedTr.grads[0][s][gi]) {
					comp = true
				} else {
					dense = true
				}
			}
			mixed = mixed || (dense && comp)
		}
	}
	if !deep || !mixed {
		t.Fatalf("budget %d: ≥3-bucket compressed stage %v, mixed bucket %v — acceptance tests degenerate",
			cfg.BucketBytes, deep, mixed)
	}
}
