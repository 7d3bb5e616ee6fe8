package main

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/train"
)

// trainSpec is one train-* workload: a trainer configuration, the
// transport under it, and the warm-up it gets before timing.
type trainSpec struct {
	name, why string
	config    func() train.Config
	// unix runs one trainer per rank over an in-process unix-socket mesh
	// (what optcc-launch gives each OS process, minus the process
	// boundary) instead of one trainer over MemTransport.
	unix   bool
	warmup int
}

// Fixed iteration indexes, counted from trainer construction, so that the
// loss a run reports does not depend on how many iterations its window
// happened to fit: final_loss is the mean loss of iterations
// [lossWindowLo, lossWindowHi), and every run executes at least that many.
const (
	lossWindowLo = 400
	lossWindowHi = 500
)

// cbfescSmall is the paper's full configuration at the stand-in model's
// scale: rank-2 low-rank approximation on both link classes.
func cbfescSmall() core.Config {
	c := core.CBFESC()
	c.CBRank = 2
	c.DPRank = 2
	return c
}

func ppConfig(opt core.Config) train.Config {
	cfg := train.DefaultConfig() // DP2×PP4, hidden 48, micro-batch 16 × 4
	cfg.Opt = opt
	cfg.Engine = train.EnginePipelined
	cfg.DPSync = train.DPSyncOverlapped
	return cfg
}

func dpConfig() train.Config {
	cfg := train.DefaultConfig()
	cfg.Model = model.Config{Vocab: 32, Hidden: 32, Context: 3, Blocks: 8, Seed: 7}
	cfg.DPGroups, cfg.Stages = 4, 2
	cfg.MicroBatch, cfg.MicroBatches = 4, 2
	cfg.Opt = cbfescSmall()
	cfg.Engine = train.EnginePipelined
	cfg.DPSync = train.DPSyncOverlapped
	return cfg
}

var (
	trainPPCbfesc = trainSpec{
		name:   wlTrainPPCbfesc,
		why:    "paper's headline config on a pipeline-heavy grid (DP2xPP4): 1F1B executor, inter-stage sends and CB compression do most of the work, DP-sync little",
		config: func() train.Config { return ppConfig(cbfescSmall()) },
		warmup: 20,
	}
	trainPPDense = trainSpec{
		name:   wlTrainPPDense,
		why:    "same grid with core.Baseline(): bypasses compress entirely; the denominator of every compression claim, which a codec change must not move",
		config: func() train.Config { return ppConfig(core.Baseline()) },
		warmup: 20,
	}
	trainDPCbfesc = trainSpec{
		name:   wlTrainDPCbfesc,
		why:    "DP-heavy grid (DP4xPP2, small micro-batches): bucketed DP-sync, compressed ring all-reduce and the overlap machinery dominate; the pipeline is shallow",
		config: dpConfig,
		warmup: 20,
	}
	trainDPUnix = trainSpec{
		name:   wlTrainDPUnix,
		why:    "train-dp-cbfesc's exact work, one trainer per rank over unix sockets: isolates the frame codec and kernel sockets; must report its mem twin's loss and wire bytes",
		config: dpConfig,
		unix:   true,
		warmup: 10,
	}
)

func trainWorkload(spec trainSpec) workload {
	return workload{
		name:  spec.name,
		why:   spec.why,
		run:   func(env runEnv) (*passResult, error) { return trainRun(spec, env) },
		trace: func(env runEnv) (*passResult, error) { return trainTrace(spec, env) },
	}
}

// seeded returns the spec's configuration for a run seed: the seed draws
// the corpus (genCorpus) and the order batches are sampled in; the model's
// own initialization seed is part of the configuration and stays.
func (s trainSpec) seeded(seed int64) train.Config {
	cfg := s.config()
	cfg.Seed = seed
	return cfg
}

// tokensPerIter is the target tokens one iteration trains on.
func tokensPerIter(cfg train.Config) float64 {
	return float64(cfg.DPGroups * cfg.MicroBatches * cfg.MicroBatch)
}

// grid is a running training job: one in-process trainer, or one trainer
// per rank of a socket mesh. Both are driven the same way — one goroutine
// per trainer calling TrainIteration in lockstep — and timed on trainer 0.
type grid struct {
	cfg  train.Config
	trs  []*train.Trainer
	mesh *socketMesh // nil in process
	// losses[i] is iteration i's mean training loss since construction.
	losses []float64
	// roots holds the benchmark's root span around each of trainer 0's
	// TrainIteration calls, on its recorder's clock (tracing on only).
	roots []span
}

// newGrid builds the job. traceIters > 0 turns span recording on, sized so
// that many iterations cannot overflow a track.
func newGrid(spec trainSpec, cfg train.Config, corpus *data.Corpus, scratch string, traceIters int) (*grid, error) {
	if traceIters > 0 {
		cfg.TraceCapacity = train.TraceCapacityFor(cfg, traceIters)
	}
	g := &grid{cfg: cfg}
	if !spec.unix {
		tr, err := train.New(cfg, corpus)
		if err != nil {
			return nil, err
		}
		g.trs = []*train.Trainer{tr}
		return g, nil
	}
	world := cfg.DPGroups * cfg.Stages
	mesh, err := newSocketMesh(scratch, world)
	if err != nil {
		return nil, err
	}
	g.mesh = mesh
	for r := 0; r < world; r++ {
		c := cfg
		c.Dist = &train.DistConfig{Transport: mesh.socks[r]}
		tr, err := train.New(c, corpus)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("rank %d trainer: %w", r, err)
		}
		g.trs = append(g.trs, tr)
	}
	return g, nil
}

func (g *grid) close() {
	for _, tr := range g.trs {
		tr.Close()
	}
	if g.mesh != nil {
		g.mesh.close()
	}
}

// err reports the first transport failure (always nil in process).
func (g *grid) err() error {
	if g.mesh != nil {
		return g.mesh.err()
	}
	return nil
}

// wire returns the cumulative modelled per-class traffic and the bytes the
// sockets actually framed (0 in process), summed over the job's ranks.
func (g *grid) wire() (collective.Stats, int64) {
	if g.mesh == nil {
		st, _ := g.trs[0].CollectiveStats()
		return st, 0
	}
	var agg collective.Stats
	var frames int64
	for _, s := range g.mesh.socks {
		st := s.Stats()
		for _, c := range collective.Classes() {
			agg[c].Bytes += st[c].Bytes
			agg[c].Messages += st[c].Messages
			agg[c].Steps += st[c].Steps
		}
		frames += s.FrameBytes()
	}
	return agg, frames
}

// runPlan says how long a grid runs: exactly `exact` iterations when that
// is positive; otherwise until the window has passed and at least min
// iterations have run, stopping early once max (when positive) have.
type runPlan struct {
	exact    int
	window   time.Duration
	min, max int
}

// run executes iterations on every trainer in lockstep and returns trainer
// 0's per-iteration wall times. each, when non-nil, is called on trainer
// 0's goroutine between iterations.
//
// Stopping a window needs agreement, since a rank that stopped alone would
// leave its ring neighbours blocked: trainer 0 decides after finishing
// iteration j that j+1 is the last. No rank can have started j+2 by then —
// finishing j+1 takes trainer 0's part in its pipeline sends and DP sync —
// so every rank reads the decision before it could overrun.
func (g *grid) run(p runPlan, each func(i int)) []time.Duration {
	var stopAt atomic.Int64
	stopAt.Store(math.MaxInt64)
	if p.exact > 0 {
		stopAt.Store(int64(p.exact))
	}
	durs := make([]time.Duration, 0, 1<<12)
	sums := make([][]float64, len(g.trs))
	start := time.Now()
	var wg sync.WaitGroup
	for r, tr := range g.trs {
		wg.Add(1)
		go func(r int, tr *train.Trainer) {
			defer wg.Done()
			rec := tr.Recorder()
			for j := 0; int64(j) < stopAt.Load(); j++ {
				t0, s0 := time.Now(), rec.Now()
				tr.TrainIteration()
				sums[r] = append(sums[r], tr.LastIterationLossSum())
				if r != 0 {
					continue
				}
				durs = append(durs, time.Since(t0))
				if rec != nil {
					g.roots = append(g.roots, span{name: "iteration", start: s0, end: rec.Now()})
				}
				if each != nil {
					each(j)
				}
				timeUp := j+1 >= p.min && time.Since(start) >= p.window
				if p.exact <= 0 && (timeUp || (p.max > 0 && j+2 >= p.max)) {
					stopAt.CompareAndSwap(math.MaxInt64, int64(j+2))
				}
			}
		}(r, tr)
	}
	wg.Wait()
	// Each process holds its local DP group's loss sum; adding them in rank
	// order replays the in-process sum, so the mean is bit-identical.
	denom := float64(g.cfg.DPGroups * g.cfg.MicroBatches)
	for j := range sums[0] {
		var sum float64
		for r := range sums {
			sum += sums[r][j]
		}
		g.losses = append(g.losses, sum/denom)
	}
	return durs
}

// finalLoss is the mean loss over the fixed iteration window.
func (g *grid) finalLoss() (float64, bool) {
	if len(g.losses) < lossWindowHi {
		return 0, false
	}
	return mean(g.losses[lossWindowLo:lossWindowHi]), true
}

// predictedWire is the plan's per-iteration wire volume.
func predictedWire(tr *train.Trainer) int64 {
	return tr.PredictedPPBytes() + tr.PredictedDPBytes() + tr.PredictedEmbBytes()
}

// nonFinite counts non-finite losses among the last n iterations.
func (g *grid) nonFinite(n int) int64 {
	var bad int64
	for _, l := range g.losses[len(g.losses)-n:] {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			bad++
		}
	}
	return bad
}

// warmGrid builds a job and runs its warm-up iterations: one set-up.
func warmGrid(spec trainSpec, cfg train.Config, corpus *data.Corpus, scratch string, traceIters int) (*grid, error) {
	g, err := newGrid(spec, cfg, corpus, scratch, traceIters)
	if err != nil {
		return nil, err
	}
	g.run(runPlan{exact: spec.warmup}, nil)
	return g, nil
}

// checkIters is how many iterations the socket workload's loss sequence is
// compared with its in-process twin's over; every build runs at least that
// many.
const checkIters = 200

// trainRun is a train-* workload's untraced pass.
func trainRun(spec trainSpec, env runEnv) (*passResult, error) {
	cfg := spec.seeded(env.seed)
	corpus, err := genCorpus(env.seed, cfg.Model.Vocab)
	if err != nil {
		return nil, err
	}
	res := newPassResult()
	var series [][]time.Duration
	var losses []float64 // the last build's, from construction
	var wirePerIter int64
	setups, err := overBuilds(env.window(),
		func() (*grid, error) { return warmGrid(spec, cfg, corpus, env.scratch, 0) },
		func(g *grid, window time.Duration) error {
			wire0, _ := g.wire()
			durs := g.run(runPlan{window: window, min: checkIters}, nil)
			wire1, _ := g.wire()
			series = append(series, durs)
			res.attempted += int64(len(durs))
			res.failed += g.nonFinite(len(durs))
			executed := wire1.Sub(wire0).Total().Bytes
			want := int64(len(durs)) * predictedWire(g.trs[0])
			res.expect("executed wire bytes equal the plan's prediction", executed == want,
				"executed %d bytes over %d iterations, predicted %d", executed, len(durs), want)
			err := g.err()
			res.expect("transports report no error", err == nil, "%v", err)
			losses, wirePerIter = g.losses, executed/int64(len(durs))
			return nil
		},
		(*grid).close)
	if err != nil {
		return nil, err
	}
	res.endToEndMetrics(timed{series: series, clients: 1, setups: setups, workPerOp: tokensPerIter(cfg)})
	if spec.unix {
		if err := checkMemTwin(res, spec, env, corpus, losses, wirePerIter); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkMemTwin trains the same configuration in process and requires the
// socket job to have produced exactly its per-iteration losses and its
// per-iteration wire volume.
func checkMemTwin(res *passResult, spec trainSpec, env runEnv, corpus *data.Corpus, losses []float64, wirePerIter int64) error {
	mem := spec
	mem.unix = false
	twin, err := newGrid(mem, spec.seeded(env.seed), corpus, env.scratch, 0)
	if err != nil {
		return err
	}
	defer twin.close()
	w0, _ := twin.wire()
	twin.run(runPlan{exact: checkIters}, nil)
	w1, _ := twin.wire()
	differ := -1
	for i := checkIters - 1; i >= 0; i-- {
		if i >= len(losses) || losses[i] != twin.losses[i] {
			differ = i
		}
	}
	res.expect("every iteration's loss equals the in-process twin's", differ < 0, "first difference at iteration %d", differ)
	twinWire := w1.Sub(w0).Total().Bytes / checkIters
	res.expect("wire bytes per iteration equal the in-process twin's", wirePerIter == twinWire,
		"unix %d, mem %d", wirePerIter, twinWire)
	return nil
}

// tracedItersMax keeps TraceCapacityFor below its internal cap, so a traced
// pass can never drop a span.
const tracedItersMax = 250

// trainTrace is a train-* workload's traced pass: an untraced stretch for
// the counters that tracing would disturb, a traced stretch whose spans
// attribute the iteration to the layers, the serial reference engine, and
// direct probes of the layers underneath at this workload's shapes.
func trainTrace(spec trainSpec, env runEnv) (*passResult, error) {
	cfg := spec.seeded(env.seed)
	corpus, err := genCorpus(env.seed, cfg.Model.Vocab)
	if err != nil {
		return nil, err
	}
	res := newPassResult()

	// Untraced stretch: traffic, allocation and pool counters per iteration.
	g, err := warmGrid(spec, cfg, corpus, env.scratch, 0)
	if err != nil {
		return nil, err
	}
	lead := g.trs[0]
	wire0, frames0 := g.wire()
	pool0 := lead.Pool().Stats()
	var heapPeak float64
	mem := startMemProbe()
	plain := g.run(runPlan{window: env.share(untracedShare), min: lossWindowHi - spec.warmup},
		func(i int) {
			if i%batchOps == 0 {
				heapPeak = math.Max(heapPeak, heapInUseMB())
			}
		})
	alloc := mem.since()
	wire1, frames1 := g.wire()
	pool1 := lead.Pool().Stats()
	n := float64(len(plain))
	res.attempted += int64(len(plain))
	res.failed += g.nonFinite(len(plain))

	wire := wire1.Sub(wire0)
	total := wire.Total()
	perIter := func(v int64) float64 { return float64(v) / n }
	res.set("collective.pp_wire_bytes_per_iter", perIter(wire.For(collective.ClassPP).Bytes), len(plain))
	res.set("collective.dp_wire_bytes_per_iter", perIter(wire.For(collective.ClassDP).Bytes), len(plain))
	res.set("collective.emb_wire_bytes_per_iter", perIter(wire.For(collective.ClassEmb).Bytes), len(plain))
	res.set("collective.wire_bytes_per_iter", perIter(total.Bytes), len(plain))
	res.set("collective.messages_per_iter", perIter(total.Messages), len(plain))
	res.set("collective.steps_per_iter", perIter(total.Steps), len(plain))
	if spec.unix {
		frames := frames1 - frames0
		res.set("collective.frame_bytes_per_iter", perIter(frames), len(plain))
		res.set("collective.frame_overhead_ratio", float64(frames)/float64(total.Bytes), len(plain))
	}
	res.expect("executed wire bytes equal the plan's prediction",
		total.Bytes == int64(len(plain))*predictedWire(lead),
		"executed %d bytes over %d iterations, predicted %d per iteration", total.Bytes, len(plain), predictedWire(lead))
	gets := pool1.Gets - pool0.Gets
	if gets > 0 {
		res.set("tensor.pool_hit_ratio", float64(pool1.Hits-pool0.Hits)/float64(gets), len(plain))
	}
	res.set("tensor.pool_gets_per_iter", float64(gets)/n, len(plain))
	res.set("train.allocs_per_iter", float64(alloc.mallocs)/n, len(plain))
	res.set("train.alloc_kb_per_iter", float64(alloc.bytes)/1024/n, len(plain))
	res.set("train.gc_cycles_per_iter", float64(alloc.gcCycles)/n, len(plain))
	res.set("train.heap_peak_mb", heapPeak, len(plain)/batchOps+1)
	if loss, ok := g.finalLoss(); ok {
		res.set("train.final_loss", loss, lossWindowHi-lossWindowLo)
	}
	ckpt, err := lead.CheckpointBytes()
	if err != nil {
		return nil, err
	}
	res.set("train.checkpoint_bytes", float64(len(ckpt)), 1)
	res.set("train.checkpoint_save_ms", timeCalls(1, 9, func() { lead.CheckpointBytes() })/1e3, 9)
	res.set("compress.ratio", compressRatio(lead), 1)
	err = g.err()
	res.expect("transports report no error", err == nil, "%v", err)
	g.close()

	// Traced stretch.
	tg, err := warmGrid(spec, cfg, corpus, env.scratch, spec.warmup+tracedItersMax)
	if err != nil {
		return nil, err
	}
	defer tg.close()
	since := make([]int64, len(tg.trs))
	spans0 := make([]int64, len(tg.trs))
	for r, tr := range tg.trs {
		since[r], spans0[r] = tr.Recorder().Now(), tr.Recorder().Count()
	}
	tg.roots = tg.roots[:0]
	traced := tg.run(runPlan{window: env.share(tracedShare), min: 2, max: tracedItersMax}, nil)
	res.attempted += int64(len(traced))
	res.failed += tg.nonFinite(len(traced))
	aggregateTrainTrace(res, tg, since, spans0, len(traced))
	res.set("obs.trace_overhead_ratio", median(millis(traced))/median(millis(plain)), len(traced))
	err = tg.err()
	res.expect("traced transports report no error", err == nil, "%v", err)

	// The serial reference engine, in process, on the same configuration.
	refCfg := cfg
	refCfg.Engine = train.EngineReference
	ref, err := train.New(refCfg, corpus)
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.warmup; i++ {
		ref.TrainIteration()
	}
	refDurs, _ := loop(env.share(referenceShare), 20, func(int) bool {
		ref.TrainIteration()
		return true
	})
	ref.Close()
	res.set("train.reference_iter_ms", median(millis(refDurs)), len(refDurs))
	res.set("train.new_ms", timeCalls(0, 5, func() {
		if tr, err := train.New(cfg, corpus); err == nil {
			tr.Close()
		}
	})/1e3, 5)
	res.set("pipeline.bubble_share_model", pipeline.BubbleFraction1F1B(cfg.Stages, cfg.MicroBatches), 1)

	trainProbes(res, spec, cfg, corpus, env)
	return res, nil
}

// compressRatio is dense bytes ÷ compressed payload bytes on one
// inter-stage boundary (0 when backprop compression is off).
func compressRatio(tr *train.Trainer) float64 {
	if cb := tr.ProbeCBWireBytes(); cb > 0 {
		return float64(tr.DenseBoundaryBytes()) / float64(cb)
	}
	return 0
}

// aggregateTrainTrace turns the traced stretch's spans into the per-layer
// time attribution. Busy-time metrics sum over every rank's tracks; the
// driver phases, which partition trainer 0's iteration wall time together
// with its optimizer steps, come from trainer 0 alone.
func aggregateTrainTrace(res *passResult, g *grid, since, spans0 []int64, iters int) {
	n := float64(iters)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	all := newPhaseTotals()  // every trainer's tracks
	lead := newPhaseTotals() // trainer 0's driver track and optimizer spans
	var topLevelRankNs, spans, dropped int64
	var ranks int
	for r, tr := range g.trs {
		rec := tr.Recorder()
		spans += rec.Count() - spans0[r]
		dropped += rec.Dropped()
		for t, track := range recorderTracks(rec, since[r]) {
			if len(track) == 0 {
				continue
			}
			name := rec.TrackName(t)
			all.addTrack(track)
			switch {
			case strings.HasPrefix(name, "rank"):
				ranks++
				one := newPhaseTotals()
				one.addTrack(track)
				// Codec spans nest inside sends, so the top-level time of a
				// rank track is its compute and send spans' full duration.
				for _, ph := range []string{"fwd", "bwd", "send_fwd", "send_bwd"} {
					topLevelRankNs += one.total[ph]
				}
				if r == 0 {
					lead.total["opt"] += one.total["opt"]
				}
			case name == "driver" && r == 0:
				lead.addTrack(track)
			}
		}
		if r == 0 {
			res.tracks = append(res.tracks, recorderTraceTracks(rec, since[r])...)
		}
	}
	res.tracks = append(res.tracks, traceTrack{name: "bench/iteration", spans: g.roots})

	res.set("train.fwd_ms_per_iter", ms(all.total["fwd"]), int(all.count["fwd"]))
	res.set("train.bwd_ms_per_iter", ms(all.total["bwd"]), int(all.count["bwd"]))
	res.set("train.opt_ms_per_iter", ms(all.total["opt"]), int(all.count["opt"]))
	res.set("train.pp_send_ms_per_iter", ms(all.self["send_fwd"]+all.self["send_bwd"]),
		int(all.count["send_fwd"]+all.count["send_bwd"]))
	res.set("compress.compress_ms_per_iter", ms(all.total["compress"]), int(all.count["compress"]))
	res.set("compress.decompress_ms_per_iter", ms(all.total["decompress"]), int(all.count["decompress"]))
	res.set("compress.calls_per_iter", float64(all.count["compress"])/n, iters)
	ops := all.count["allreduce"] + all.count["allreduce_compressed"] + all.count["broadcast"]
	res.set("collective.ops_per_iter", float64(ops)/n, iters)
	res.set("collective.op_ms_per_iter",
		ms(all.total["allreduce"]+all.total["allreduce_compressed"]+all.total["broadcast"]), int(ops))
	res.set("collective.exec_ms_per_iter", ms(all.self["coll_exec"]), int(all.count["coll_exec"]))

	res.set("train.pipeline_ms_per_iter", ms(lead.total["pipeline"]), iters)
	res.set("train.dp_exposed_ms_per_iter", ms(lead.total["dp_drain"]), iters)
	res.set("train.emb_sync_ms_per_iter", ms(lead.total["emb_sync"]), iters)
	var rootNs int64
	for _, s := range g.roots {
		rootNs += s.dur()
	}
	accounted := lead.total["pipeline"] + lead.total["dp_drain"] + lead.total["emb_sync"] + lead.total["opt"]
	residual := float64(rootNs-accounted) / float64(rootNs)
	res.set("train.residual_share", residual, iters)
	res.expect("iteration phases cover the root span (residual ≤ 0.10)", residual <= 0.10 && residual >= -0.01,
		"pipeline+dp_exposed+emb_sync+opt leave %.3f of the iteration unattributed", residual)
	if window := all.total["pipeline"]; window > 0 && ranks > 0 {
		// Every trainer's pipeline window is the window of its local ranks.
		perTrainer := float64(ranks) / float64(len(g.trs))
		res.set("train.stage_idle_share", 1-float64(topLevelRankNs)/(perTrainer*float64(window)), iters)
	}
	res.set("obs.spans_per_iter", float64(spans)/n, iters)
	res.set("obs.dropped_spans", float64(dropped), 1)
	res.expect("the recorder dropped no span", dropped == 0, "%d spans dropped", dropped)
}

// recorderTraceTracks renders a recorder's spans since sinceNs as trace
// tracks, named as the program names them.
func recorderTraceTracks(rec *obs.Recorder, sinceNs int64) []traceTrack {
	var out []traceTrack
	for t, spans := range recorderTracks(rec, sinceNs) {
		if len(spans) > 0 {
			out = append(out, traceTrack{name: rec.TrackName(t), spans: spans})
		}
	}
	return out
}
