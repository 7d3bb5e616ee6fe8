package train

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"repro/internal/collective"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// gridConfig builds a DP×PP test configuration with micros micro-batches.
func gridConfig(opt core.Config, dp, pp, micros int) Config {
	cfg := testConfig(opt)
	cfg.DPGroups = dp
	cfg.Stages = pp
	cfg.MicroBatches = micros
	return cfg
}

// oracleGrids are the DP×PP shapes (with micro-batch counts) the trainer
// oracle runs: a single rank; pure data parallelism at two and three
// ways, where the 1F1B executor degenerates to one forward/backward chain
// per rank; the minimal pipeline; a deep pipeline wider in data than in
// stages and its transpose; three-way rings under a pipeline (where a
// textbook rotated-order ring would already diverge in the last ulp);
// and m < p−1 on the 4-stage grid, where the warmup w = min(p−s−1, m)
// caps at m and every backward is an epilogue backward.
var oracleGrids = []struct{ dp, pp, micros int }{
	{1, 1, 4},
	{2, 1, 4},
	{3, 1, 4},
	{1, 2, 4},
	{2, 4, 4},
	{4, 2, 4},
	{3, 2, 4},
	{2, 4, 2},
}

// oracleOpts are the compression configurations the pipelined engine
// must reproduce bit for bit: exact with both embedding strategies,
// compressed backprop on every send, epilogue-only compression (§5.2 —
// scaledCB inherits it from core.CB, and its per-micro classification is
// exactly where an executor driving the schedule can drift from the
// serial loop), sparse-native TopK backprop (every compressed send goes
// through SendCompressedSparse), and the full Optimus-CC configuration,
// whose §7 selection compresses DP sync.
func oracleOpts() map[string]core.Config {
	fe := core.Baseline()
	fe.FuseEmbedding = true
	cbFull := scaledCB()
	cbFull.EpilogueOnly = false
	cbTopK := scaledCB()
	cbTopK.CBAlg = core.CBTopK
	cbTopK.EpilogueOnly = false
	return map[string]core.Config{
		"baseline":       core.Baseline(),
		"fe":             fe,
		"cb-full":        cbFull,
		"cb-epilogue":    scaledCB(),
		"cb-topk-sparse": cbTopK,
		"cbfesc":         overlapOpts()["cbfesc"],
	}
}

// overlapOpts are the configurations the DP-sync modes and bucket
// budgets are crossed with: exact, compressed backprop, and the full
// Optimus-CC configuration.
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

// smallBucketBudgets are the bucket budgets the DP-sync oracles run at,
// at ElemBytes = 2 and the test model's 16-wide layers: 512 B closes a
// bucket at every 16×16 matrix, so buckets are single compressed
// matrices or runs of dense vectors (up to six per stage); 600 B leaves
// room for a matrix plus vectors, so a compressed stage gets at least
// three buckets on the DP4×PP2 grid, most of them mixing dense and
// compressed channels — one ring and one payload gather in one
// operation.
var smallBucketBudgets = []int64{512, 600}

// oracleCase is one row of the trainer oracle table.
type oracleCase struct {
	dp, pp, micros int
	opt            string
	mode           DPSyncMode
	budget         int64 // 0: the plan's default budget
}

func (c oracleCase) String() string {
	return fmt.Sprintf("%dx%d-m%d/%s/%v/b%d", c.dp, c.pp, c.micros, c.opt, c.mode, c.budget)
}

// oracleCases crosses every grid with every configuration at the default
// bucket budget under overlapped sync, and — wherever there is DP sync —
// the overlap configurations with both sync modes at the small budgets
// (multi-bucket schedules, mixed dense/compressed buckets) plus blocking
// sync of the full configuration at the default budget.
func oracleCases() []oracleCase {
	names := make([]string, 0, len(oracleOpts()))
	for name := range oracleOpts() {
		names = append(names, name)
	}
	sort.Strings(names)
	var cases []oracleCase
	for _, g := range oracleGrids {
		for _, name := range names {
			cases = append(cases, oracleCase{g.dp, g.pp, g.micros, name, DPSyncOverlapped, 0})
		}
		if g.dp == 1 {
			continue
		}
		cases = append(cases, oracleCase{g.dp, g.pp, g.micros, "cbfesc", DPSyncBlocking, 0})
		for _, name := range []string{"baseline", "cb-epilogue", "cbfesc"} {
			for _, mode := range []DPSyncMode{DPSyncOverlapped, DPSyncBlocking} {
				for _, budget := range smallBucketBudgets {
					cases = append(cases, oracleCase{g.dp, g.pp, g.micros, name, mode, budget})
				}
			}
		}
	}
	return cases
}

// oracleIters is how many iterations every oracle case trains.
const oracleIters = 3

// oracleRun is one oracle case trained on both engines.
type oracleRun struct {
	cfg       Config
	pipe, ref *Trainer
}

// trainOracleCase trains the pipelined engine (the 1F1B executor over
// the collective runtime, with the case's DP-sync mode and bucket
// budget) and the fully serial reference engine for oracleIters
// iterations, and requires equal losses every iteration and equal
// weights on every replica at tolerance 0.
func trainOracleCase(t *testing.T, c *data.Corpus, oc oracleCase) oracleRun {
	t.Helper()
	cfg := gridConfig(oracleOpts()[oc.opt], oc.dp, oc.pp, oc.micros)
	cfg.DPSync = oc.mode
	cfg.BucketBytes = oc.budget
	refCfg := cfg
	refCfg.Engine = EngineReference
	pipe, err := New(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pipe.Close)
	ref, err := New(refCfg, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < oracleIters; i++ {
		if lp, lr := pipe.TrainIteration(), ref.TrainIteration(); lp != lr {
			t.Fatalf("iteration %d: pipelined loss %v, reference %v", i, lp, lr)
		}
	}
	assertSameWeights(t, pipe, ref, "pipelined vs reference")
	return oracleRun{cfg, pipe, ref}
}

// runOracle trains every oracle case keep selects, as a subtest named
// after the case, and applies check to it (nil: bit identity only).
func runOracle(t *testing.T, keep func(oracleCase) bool, check func(*testing.T, oracleRun)) {
	c := testCorpus(t)
	n := 0
	for _, oc := range oracleCases() {
		if !keep(oc) {
			continue
		}
		n++
		t.Run(oc.String(), func(t *testing.T) {
			r := trainOracleCase(t, c, oc)
			if check != nil {
				check(t, r)
			}
		})
	}
	if n == 0 {
		t.Fatal("no oracle case selected")
	}
}

// oracleFamily assigns every oracle case to exactly one of the tests
// that pin it bit-identical to the reference engine: blocking sync,
// overlapped sync at the small bucket budgets, and — at the default
// budget under overlapped sync — three-way rings, the other degenerate
// grids, and the DP×PP pipelines.
func oracleFamily(oc oracleCase) string {
	switch {
	case oc.mode == DPSyncBlocking:
		return "blocking"
	case oc.budget != 0:
		return "small-buckets"
	case oc.dp == 3:
		return "three-way-ring"
	case oc.dp == 1 || oc.pp == 1:
		return "degenerate"
	default:
		return "pipeline"
	}
}

func inFamily(family string) func(oracleCase) bool {
	return func(oc oracleCase) bool { return oracleFamily(oc) == family }
}

func allCases(oracleCase) bool { return true }

// TestPipelineExecutorBitIdentical pins the 1F1B executor — one
// goroutine per (dp, stage) rank, tensors shipped over the collective
// transport — bit for bit to the serial reference on the DP×PP grids
// (m < p−1 included) under every compression configuration.
func TestPipelineExecutorBitIdentical(t *testing.T) {
	runOracle(t, inFamily("pipeline"), nil)
}

// TestCollectiveBitIdenticalToSerial pins three-way DP rings, alone and
// under a pipeline, to the serial reference: the ring's reduction order
// must follow flat rank order, where a textbook rotated-order ring would
// already diverge in the last ulp.
func TestCollectiveBitIdenticalToSerial(t *testing.T) {
	runOracle(t, inFamily("three-way-ring"), nil)
}

// TestCollectiveSingleStageAndSingleGroup covers the other degenerate
// grids: a single rank, pure two-way DP and pure PP.
func TestCollectiveSingleStageAndSingleGroup(t *testing.T) {
	runOracle(t, inFamily("degenerate"), nil)
}

// TestOverlappedDPSyncBitIdentical pins overlapped DP sync at the small
// bucket budgets — multi-bucket schedules, mixed dense/compressed
// buckets issued by whichever rank goroutine arrives last — to the
// serial reference.
func TestOverlappedDPSyncBitIdentical(t *testing.T) {
	runOracle(t, inFamily("small-buckets"), nil)
}

// TestSyncWorkersBitIdentical pins blocking DP sync, where the iteration
// goroutine issues every stage's buckets at the join and the runtime's
// rank workers reduce all of them at once, to the serial reference.
func TestSyncWorkersBitIdentical(t *testing.T) {
	runOracle(t, inFamily("blocking"), nil)
}

// TestParallelGroupsBitIdentical pins that the pipelined engine, which
// runs every DP group's stage ranks and ring members concurrently, does
// not depend on how they interleave: the DP4×PP2 full configuration
// matches the reference at tolerance 0 on one OS thread and on four.
func TestParallelGroupsBitIdentical(t *testing.T) {
	c := testCorpus(t)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			for _, mode := range []DPSyncMode{DPSyncOverlapped, DPSyncBlocking} {
				trainOracleCase(t, c, oracleCase{4, 2, 4, "cbfesc", mode, 0})
			}
		})
	}
}

// TestExecutedPlacementEqualsPlanAndPrediction requires, on every oracle
// case and on both engines, executed == plan for the backward edge set,
// the DP stage set and the embedding strategy — recorded at the
// send/sync call sites independently of the plan.
func TestExecutedPlacementEqualsPlanAndPrediction(t *testing.T) {
	runOracle(t, allCases, func(t *testing.T, r oracleRun) {
		cfg := r.cfg
		pl := r.pipe.Plan()
		for _, tr := range []*Trainer{r.pipe, r.ref} {
			eng := tr.Engine()
			bwd := tr.ExecutedBackwardActions()
			for s := 1; s < cfg.Stages; s++ {
				for mi := 0; mi < cfg.MicroBatches; mi++ {
					if bwd[s][mi] != pl.CompressBackward(s, mi) {
						t.Fatalf("%v: edge (s=%d,mi=%d) executed=%v plan=%v", eng, s, mi, bwd[s][mi], pl.CompressBackward(s, mi))
					}
				}
			}
			dpStages, ran := tr.ExecutedCompressedStages()
			if want := cfg.DPGroups > 1; ran != want {
				t.Fatalf("%v: dp sync ran=%v, want %v", eng, ran, want)
			}
			for s, got := range dpStages {
				if ran && got != pl.DPCompressed(s) {
					t.Fatalf("%v: stage %d executed dp-compress=%v plan=%v", eng, s, got, pl.DPCompressed(s))
				}
			}
			if emb, ran := tr.ExecutedEmbedding(); !ran || emb != pl.Embedding() {
				t.Fatalf("%v: executed embedding %v (ran=%v), plan says %v", eng, emb, ran, pl.Embedding())
			}
		}
	})
}

// TestPipelineExecutorTrafficMatchesPrediction requires, on every oracle
// case, executed == plan == sim on the transport's pp class: bytes,
// messages and steps equal the plan-derived inter-stage prediction,
// which equals the configuration-derived one and simnet's message
// count; the emb class carries the §6 prediction. Only the pipelined
// engine has a transport.
func TestPipelineExecutorTrafficMatchesPrediction(t *testing.T) {
	runOracle(t, allCases, func(t *testing.T, r oracleRun) {
		cfg, pipe := r.cfg, r.pipe
		if _, ok := r.ref.CollectiveStats(); ok {
			t.Fatal("reference engine reports a transport")
		}
		st, ok := pipe.CollectiveStats()
		if !ok {
			t.Fatal("pipelined engine has no transport")
		}
		replicaIters := int64(cfg.DPGroups * oracleIters)
		var cmp int64
		if cfg.Opt.CompressBackprop {
			cmp = probeCBWireBytes(t, pipe)
		}
		fromPlan := sim.PredictInterStageFromPlan(pipe.Plan(), pipe.DenseBoundaryBytes(), cmp)
		fromOpt, err := sim.PredictInterStage(cfg.Opt, cfg.Stages, cfg.MicroBatches, pipe.DenseBoundaryBytes(), cmp)
		if err != nil {
			t.Fatal(err)
		}
		if fromPlan != fromOpt {
			t.Fatalf("plan-derived pp prediction %+v != configuration-derived %+v", fromPlan, fromOpt)
		}
		pp := st.For(collective.ClassPP)
		if pp.Bytes != fromPlan.Bytes*replicaIters || pp.Messages != fromPlan.Messages*replicaIters || pp.Steps != fromPlan.Steps*replicaIters {
			t.Fatalf("executed pp %+v over %d replica-iterations, predicted %+v each", pp, replicaIters, fromPlan)
		}
		if want := int64(simnet.InterStageMessages(cfg.Stages, cfg.MicroBatches)) * replicaIters; pp.Messages != want {
			t.Fatalf("executed pp messages %d, simnet says %d", pp.Messages, want)
		}
		if emb := st.For(collective.ClassEmb).Bytes; emb != pipe.PredictedEmbBytes()*oracleIters {
			t.Fatalf("executed emb %d bytes over %d iterations, predicted %d each", emb, oracleIters, pipe.PredictedEmbBytes())
		}
	})
}

// TestExecutedDPBucketsMatchPlanAndSim requires, on every oracle case,
// that each DP bucket moved exactly sim.PredictDPBucketBytes and that the
// dp class carries their sum and the per-bucket closed form's messages
// and steps — and, where there is no DP sync, that the dp class is
// empty.
func TestExecutedDPBucketsMatchPlanAndSim(t *testing.T) {
	runOracle(t, allCases, func(t *testing.T, r oracleRun) {
		pipe := r.pipe
		st, ok := pipe.CollectiveStats()
		if !ok {
			t.Fatal("pipelined engine has no transport")
		}
		dp := st.For(collective.ClassDP)
		exec, ok := pipe.ExecutedDPBuckets()
		if want := r.cfg.DPGroups > 1; ok != want {
			t.Fatalf("bucket log ok=%v, want %v", ok, want)
		}
		if !ok {
			if dp != (collective.ClassStats{}) {
				t.Fatalf("no DP sync ran, yet the dp class carries %+v", dp)
			}
			return
		}
		pred, err := sim.PredictDPBucketBytes(pipe.Plan(), func(s, ch int) int64 { return probeDPPayloadBytes(t, pipe, s, ch) })
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for s := range pred {
			if len(exec[s]) != len(pred[s]) {
				t.Fatalf("stage %d has %d executed buckets, plan says %d", s, len(exec[s]), len(pred[s]))
			}
			for bi := range pred[s] {
				if exec[s][bi] != pred[s][bi] {
					t.Fatalf("stage %d bucket %d executed %d B, predicted %d B", s, bi, exec[s][bi], pred[s][bi])
				}
				total += exec[s][bi]
			}
		}
		msgs, steps := dpSyncClosedForm(pipe)
		if dp.Bytes != total*oracleIters || dp.Messages != msgs*oracleIters || dp.Steps != steps*oracleIters {
			t.Fatalf("dp class %+v over %d iterations; Σ buckets %d B, closed form %d messages in %d steps per iteration",
				dp, oracleIters, total, msgs, steps)
		}
	})
}

// assertSameWeights compares every parameter of every replica at
// tolerance zero.
func assertSameWeights(t *testing.T, a, b *Trainer, label string) {
	t.Helper()
	for dd := range a.replicas {
		for s := range a.replicas[dd] {
			pa, pb := a.replicas[dd][s].Params(), b.replicas[dd][s].Params()
			for i := range pa {
				if !pa[i].Equal(pb[i], 0) {
					t.Fatalf("%s: replica %d stage %d param %d differs", label, dd, s, i)
				}
			}
		}
	}
}

// probeCBWireBytes returns the wire size of one compressed backward
// payload for cfg's boundary shape, measured on a compressor built from
// the trainer's compiled plan spec through the registry (payload sizes
// are shape-determined, so one probe predicts every send). For low-rank
// configurations it also pins the measured size to core.LowRankWireBytes
// — the closed form the pipeline experiment and the quickstart price
// predictions with.
func probeCBWireBytes(t *testing.T, tr *Trainer) int64 {
	t.Helper()
	probe := tensor.New(tr.cfg.MicroBatch, tr.cfg.Model.Hidden)
	for i := range probe.Data {
		probe.Data[i] = float64(i%13) / 13
	}
	c, err := compress.Build(tr.Plan().CBSpec(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	wire := c.Compress(probe).WireBytes()
	if tr.Plan().CBFamily() == "powersgd" {
		if want := core.LowRankWireBytes(probe.Rows, probe.Cols, tr.cfg.Opt.CBRank, compress.ElemBytes); wire != want {
			t.Fatalf("measured PowerSGD payload %d bytes, closed form says %d", wire, want)
		}
	}
	return wire
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

// TestOverlapBucketScheduleNonTrivial guards the oracle's setup itself:
// at the test scale with the tiny budget, at least one stage must split
// into more than one bucket — otherwise the table wouldn't exercise
// multi-bucket issue at all.
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
