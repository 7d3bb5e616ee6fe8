// Package train executes real distributed training of the stand-in
// language model under 3D-parallelism semantics, with the Optimus-CC
// techniques applied to genuine tensors:
//
//   - Pipeline parallelism: the model is split into stages; micro-batches
//     flow through per the 1F1B schedule, and the inter-stage backward
//     traffic is the actual activation-gradient matrix.
//   - Compressed backpropagation (§5): that matrix is compressed with
//     PowerSGD (or top-k), optionally with lazy error propagation (§5.1,
//     residuals carried to the next micro-batch) and epilogue-only
//     compression (§5.2, driven by the schedule's phase classification).
//   - Data parallelism: DPGroups replicas train on disjoint batches; their
//     gradients are averaged (optionally compressed with error feedback,
//     restricted by selective stage compression, §7).
//   - Embedding synchronization (§6): the tied table's gradients from the
//     first and last stages are combined, either in two phases (baseline)
//     or fused; the two are mathematically identical, which tests assert.
//
// Every grid the pipelined engine runs — single-stage and 1×1 included —
// executes on the 1F1B pipeline executor: one goroutine per (dp group,
// stage) rank drives the schedule's ops in order, shipping forward
// activations and backward activation-gradients over the collective
// runtime's point-to-point transport (pipeline.go). The serial in-loop
// path is the EngineReference oracle only; the two are bit-identical
// (per-stage gradient accumulation, per-boundary compressor state, and
// per-group losses all follow micro-batch order on both), so runs are
// bit-reproducible given a seed on either.
//
// Data-parallel synchronization overlaps with the backward pass by
// default: the compiled plan carves each stage's gradients into
// byte-budgeted buckets, and the moment a stage's gradients are final on
// every group its buckets are issued as asynchronous ring all-reduces
// (overlap.go); the iteration waits on every handle before the optimizer
// step. Config.DPSync selects blocking sync instead — the same handles,
// issued at the join; both modes and the fully serial EngineReference
// oracle are bit-identical.
package train

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/collective"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// Config fully describes a training run.
type Config struct {
	Model        model.Config
	Stages       int // pipeline-parallel ways
	DPGroups     int // data-parallel ways
	MicroBatch   int // samples per micro-batch
	MicroBatches int // micro-batches per DP group per iteration
	Opt          core.Config

	LR       float64
	Momentum float64
	Clip     float64
	// Schedule, when non-nil, overrides LR per iteration (e.g.
	// model.WarmupCosine — the §9.1 warm-up practice).
	Schedule model.LRSchedule

	// CollectStats enables Fig. 11 error/activation tracking (boundary 0).
	CollectStats bool
	// Engine selects the execution stack: the 1F1B executor over the
	// collective runtime (default) or the fully serial reference oracle.
	// Both are bit-identical (asserted by tests); only the pipelined one
	// executes and accounts real per-rank traffic.
	Engine Engine
	// DPSync selects overlapped (default) vs blocking data-parallel
	// gradient synchronization on the pipelined engine. Both run the
	// plan's bucket schedule and are bit-identical; only the timing
	// differs (see DPSyncMode).
	DPSync DPSyncMode
	// BucketBytes caps one DP-sync bucket's dense payload
	// (0 = plan.DefaultBucketBytes).
	BucketBytes int64
	// TraceCapacity, when positive, enables executed-run span recording:
	// every rank, collective worker, and the sync driver get a
	// fixed-capacity ring of this many spans (oldest dropped beyond it —
	// ReconcileTrace refuses traces with drops; see TraceCapacityFor for
	// a bound that never drops). Zero disables tracing entirely: the
	// instrumented hot paths take the nil-recorder branch, pinned at
	// 0 allocs/op and within bench noise of the untraced build.
	TraceCapacity int
	Seed          int64

	// Dist, when non-nil, runs this trainer as one rank of a
	// process-per-rank grid over the supplied remote transport (see
	// DistConfig). It requires the pipelined engine — the reference
	// engine executes whole replicas in-process, which a single-rank
	// process cannot do.
	Dist *DistConfig
}

// DefaultConfig returns the configuration used by the quality experiments:
// a 4-stage, 2-way-data-parallel model large enough to show compression
// effects but small enough to pretrain in seconds.
func DefaultConfig() Config {
	return Config{
		Model:        model.Config{Vocab: 32, Hidden: 48, Context: 3, Blocks: 8, Seed: 7},
		Stages:       4,
		DPGroups:     2,
		MicroBatch:   16,
		MicroBatches: 4,
		Opt:          core.Baseline(),
		LR:           0.35,
		Momentum:     0.9,
		Clip:         1.0,
		Seed:         7,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if err := c.Opt.Validate(); err != nil {
		return err
	}
	switch {
	case c.Stages < 1 || c.Stages > c.Model.Blocks:
		return fmt.Errorf("train: Stages %d outside [1, %d]", c.Stages, c.Model.Blocks)
	case c.DPGroups < 1:
		return fmt.Errorf("train: DPGroups %d < 1", c.DPGroups)
	case c.MicroBatch < 1 || c.MicroBatches < 1:
		return fmt.Errorf("train: micro-batch settings must be ≥ 1")
	case c.LR <= 0:
		return fmt.Errorf("train: LR %v <= 0", c.LR)
	case c.Engine < EnginePipelined || c.Engine > EngineReference:
		return fmt.Errorf("train: unknown engine %v", c.Engine)
	case c.DPSync < DPSyncOverlapped || c.DPSync > DPSyncBlocking:
		return fmt.Errorf("train: unknown DP-sync mode %v", c.DPSync)
	case c.BucketBytes < 0:
		return fmt.Errorf("train: negative BucketBytes %d", c.BucketBytes)
	case c.TraceCapacity < 0:
		return fmt.Errorf("train: negative TraceCapacity %d", c.TraceCapacity)
	}
	if c.Dist != nil {
		tr := c.Dist.Transport
		switch {
		case tr == nil:
			return fmt.Errorf("train: Dist requires a transport")
		case !tr.Remote():
			return fmt.Errorf("train: Dist transport must be remote (process-per-rank)")
		case c.Engine == EngineReference:
			return fmt.Errorf("train: Dist is incompatible with EngineReference (no collective runtime)")
		}
		if w, ok := tr.(interface{ World() int }); ok && w.World() != c.DPGroups*c.Stages {
			return fmt.Errorf("train: Dist transport world %d != DPGroups×Stages %d",
				w.World(), c.DPGroups*c.Stages)
		}
	}
	return nil
}

// Trainer holds the replicated pipeline and all compression state.
type Trainer struct {
	cfg Config
	// plan is the compiled communication/compression plan — the single
	// source of truth for which edges compress, which stages' DP sync
	// compresses, and how the embedding synchronizes. The trainer never
	// re-derives placement from cfg.Opt directly.
	plan   *plan.Plan
	corpus *data.Corpus
	sched  *pipeline.Schedule
	// replicas[d][s] is pipeline stage s of data-parallel group d.
	replicas [][]*model.Stage
	opt      *model.SGD
	rng      *rand.Rand

	// pool recycles every transient matrix of the sync and comm hot paths
	// (averaging buffers, compressor workspaces, reconstructions), making
	// steady-state iterations allocation-free outside the model itself.
	pool *tensor.Pool
	// grads[d][s] / params[d][s] cache the stages' tensor lists, which are
	// rebuilt on every Grads()/Params() call otherwise.
	grads  [][][]*tensor.Matrix
	params [][][]*tensor.Matrix
	// embSkip marks every embedding-table gradient; DP sync skips them
	// (they belong to the §6 embedding-synchronization phase).
	embSkip map[*tensor.Matrix]bool
	// coll is the rank-based collective runtime the pipelined engine runs
	// on (nil exactly under EngineReference).
	coll *collectiveState

	// cb[d][s] compresses the backward send from stage s to s−1 of group
	// d (s ≥ 1). The ErrorFeedback residual IS lazy error propagation.
	cb [][]*compress.ErrorFeedback
	// dpEFs[s][d][g] compresses gradient channel g of stage s in group d
	// during DP sync — built once in New from the plan's DPSpec, nil
	// where the channel stays dense (unselected stage, vector shape, or
	// an embedding channel). The bucket channels, the serial reference
	// sync and the checkpoint all share this one table.
	dpEFs [][][]*compress.ErrorFeedback

	// exec records what the engine actually did, independently of the
	// plan, so crosscheck tests can compare executed placement against
	// the compiled plan and the simulator's prediction.
	exec execLog

	stats *Stats
	iter  int
	// lastLossSum is the last iteration's raw loss sum over the groups
	// this process executed — under Dist a partial sum the coordinator
	// aggregates across processes before normalizing.
	lastLossSum float64

	// rec is the executed-run span recorder (nil unless
	// Config.TraceCapacity > 0). Track layout, with W = DPGroups×Stages:
	// [0, W) engine rank tracks (compute, p2p sends, backprop codec),
	// [W, 2W) collective worker tracks (per-member op execution, DP-sync
	// codec), 2W the driver track (pipeline window, DP drain, embedding
	// sync), 2W+1..2W+3 the per-class op tracks (issue→finish spans).
	rec *obs.Recorder
	// metrics is the trainer's counter registry (always present).
	// dpWait is its "train.dp_sync_exposed_ns" counter: the wall time
	// TrainIteration spent blocked on DP synchronization after the
	// backward pass — the executed "exposed communication" the overlap
	// bench reports. Written only by the iteration goroutine.
	metrics *obs.Registry
	dpWait  *obs.Counter
	iters   *obs.Counter
}

// traceTrack returns rank (d, s)'s engine span track (== the collective
// topology's Rank(d, s) — both are DP-major).
func (t *Trainer) traceTrack(d, s int) int { return d*t.cfg.Stages + s }

// traceWorkerBase/traceDriver/traceOpsBase locate the non-rank tracks.
func (t *Trainer) traceWorkerBase() int { return t.cfg.DPGroups * t.cfg.Stages }
func (t *Trainer) traceDriver() int     { return 2 * t.cfg.DPGroups * t.cfg.Stages }
func (t *Trainer) traceOpsBase() int    { return 2*t.cfg.DPGroups*t.cfg.Stages + 1 }

// execLog captures executed communication decisions: group 0's backward
// edge actions (identical across groups), the DP-sync stage selection,
// and the embedding strategy. bwd[s][mi] is written only by group 0's
// stage-s rank (distinct rows per goroutine), so no locking is needed.
type execLog struct {
	bwd [][]bool
	dp  []bool
	// dpBuckets[s][b] is the aggregate wire volume the runtime actually
	// moved for stage s's bucket b during the last DP sync (zero on the
	// reference engine, which has no transport). Rows are written by one
	// goroutine each — the stage's issuing/syncing goroutine — so no
	// locking is needed.
	dpBuckets [][]int64
	// dpRan reports whether a DP sync executed at all (DPGroups > 1).
	dpRan bool
	emb   plan.EmbeddingStrategy
	// embRan reports whether an embedding sync path executed.
	embRan bool
}

// New builds a trainer over the given corpus. The configuration is
// compiled into a *plan.Plan first (plan.Compile is where every
// placement and compressor-family decision is validated and resolved);
// the trainer then only executes what the plan says.
func New(cfg Config, corpus *data.Corpus) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if corpus.Vocab != cfg.Model.Vocab {
		return nil, fmt.Errorf("train: corpus vocab %d != model vocab %d", corpus.Vocab, cfg.Model.Vocab)
	}
	sched, err := pipeline.OneFOneB(cfg.Stages, cfg.MicroBatches)
	if err != nil {
		return nil, err
	}
	t := &Trainer{
		cfg:     cfg,
		corpus:  corpus,
		sched:   sched,
		opt:     model.NewSGD(cfg.LR, cfg.Momentum, cfg.Clip),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		pool:    tensor.NewPool(),
		embSkip: make(map[*tensor.Matrix]bool),
		metrics: obs.NewRegistry(),
	}
	t.dpWait = t.metrics.Counter("train.dp_sync_exposed_ns")
	t.iters = t.metrics.Counter("train.iterations")
	if cfg.TraceCapacity > 0 {
		// Built before the collective state and the compressors so both
		// can be wired to it at construction time.
		w := cfg.DPGroups * cfg.Stages
		names := make([]string, 0, 2*w+4)
		for r := 0; r < w; r++ {
			names = append(names, fmt.Sprintf("rank%d", r))
		}
		for r := 0; r < w; r++ {
			names = append(names, fmt.Sprintf("coll%d", r))
		}
		names = append(names, "driver", "ops/dp", "ops/pp", "ops/emb")
		t.rec = obs.NewRecorder(names, cfg.TraceCapacity)
	}
	for d := 0; d < cfg.DPGroups; d++ {
		stages, err := model.NewStages(cfg.Model, cfg.Stages)
		if err != nil {
			return nil, err
		}
		t.replicas = append(t.replicas, stages)
		gRow := make([][]*tensor.Matrix, cfg.Stages)
		pRow := make([][]*tensor.Matrix, cfg.Stages)
		for s, stage := range stages {
			gRow[s] = stage.Grads()
			pRow[s] = stage.Params()
			if eg := stage.EmbeddingGrad(); eg != nil {
				t.embSkip[eg] = true
			}
		}
		t.grads = append(t.grads, gRow)
		t.params = append(t.params, pRow)
	}
	// The run seed (cfg.Seed) drives every compressor sketch, as it
	// always has; the core.Config's own Seed field is normalized to it
	// so the compiled plan's specs carry the effective seed. The grid
	// carries the per-stage gradient channel sizes (embedding channels
	// zeroed — they belong to the §6 phase) so Compile can derive the
	// DP-sync bucket schedule; replicas are built first for exactly this
	// reason.
	opt := cfg.Opt
	opt.Seed = cfg.Seed
	sizes := make([][]int64, cfg.Stages)
	for s := 0; s < cfg.Stages; s++ {
		row := make([]int64, len(t.grads[0][s]))
		for gi, g := range t.grads[0][s] {
			if !t.embSkip[g] {
				row[gi] = g.SizeBytes(compress.ElemBytes)
			}
		}
		sizes[s] = row
	}
	pl, err := plan.Compile(opt, plan.Grid{
		Stages:         cfg.Stages,
		DPGroups:       cfg.DPGroups,
		MicroBatches:   cfg.MicroBatches,
		BoundaryRows:   cfg.MicroBatch,
		BoundaryCols:   cfg.Model.Hidden,
		StageGradBytes: sizes,
		BucketBytes:    cfg.BucketBytes,
	})
	if err != nil {
		return nil, err
	}
	t.plan = pl
	t.exec.bwd = make([][]bool, cfg.Stages)
	for s := range t.exec.bwd {
		t.exec.bwd[s] = make([]bool, cfg.MicroBatches)
	}
	t.exec.dp = make([]bool, cfg.Stages)
	t.exec.dpBuckets = make([][]int64, cfg.Stages)
	for s := range t.exec.dpBuckets {
		t.exec.dpBuckets[s] = make([]int64, pl.BucketCount(s))
	}
	if cfg.Opt.CompressBackprop {
		for d := 0; d < cfg.DPGroups; d++ {
			row := make([]*compress.ErrorFeedback, cfg.Stages)
			for s := 1; s < cfg.Stages; s++ {
				inner, err := compress.Build(pl.CBSpec(d, s))
				if err != nil {
					return nil, fmt.Errorf("train: boundary (%d,%d): %w", d, s, err)
				}
				ef := compress.NewErrorFeedback(inner)
				ef.SetEnabled(pl.LazyErrorPropagation())
				ef.SetPool(t.pool)
				// Backprop codec spans land on the sending rank's track —
				// boundary (d, s) compresses on rank (d, s)'s goroutine.
				ef.SetRecorder(t.rec, t.traceTrack(d, s))
				row[s] = ef
			}
			t.cb = append(t.cb, row)
		}
	}
	t.dpEFs = make([][][]*compress.ErrorFeedback, cfg.Stages)
	for s := range t.dpEFs {
		t.dpEFs[s] = make([][]*compress.ErrorFeedback, cfg.DPGroups)
		for d := range t.dpEFs[s] {
			row := make([]*compress.ErrorFeedback, len(t.grads[d][s]))
			for gi, g := range t.grads[d][s] {
				if !pl.DPCompressed(s) || !compressibleShape(g) || t.embSkip[g] {
					continue
				}
				// The spec family was validated by plan.Compile, so Build
				// only fails on a programming error.
				ef := compress.NewErrorFeedback(compress.MustBuild(pl.DPSpec(s, d, gi)))
				ef.SetPool(t.pool)
				// DP codec spans run inside rank (d, s)'s collective worker
				// during the compressed ring, so they land on its worker
				// track.
				ef.SetRecorder(t.rec, t.traceWorkerBase()+t.traceTrack(d, s))
				row[gi] = ef
			}
			t.dpEFs[s][d] = row
		}
	}
	if cfg.CollectStats {
		t.stats = NewStats()
	}
	if cfg.Engine == EnginePipelined {
		t.coll = newCollectiveState(t)
		// A trainer that is dropped without Close (the experiment harness
		// creates dozens) must not pin its rank workers and pool forever:
		// when the trainer becomes unreachable, release the runtime. The
		// runtime never references the trainer, so the cleanup can fire;
		// Close stays the deterministic path and is idempotent.
		runtime.AddCleanup(t, func(rt *collective.Runtime) { rt.Close() }, t.coll.rt)
		if t.rec != nil {
			t.coll.rt.SetRecorder(t.rec, t.traceWorkerBase(), t.traceOpsBase())
			// Tag each stage's DP group so its op spans carry the stage
			// index (DP/<stage> in the trace, matching the simulator).
			for s, g := range t.coll.dp {
				g.SetTag(s)
			}
		}
	}
	return t, nil
}

// Close releases the collective runtime's rank workers. Training must
// not be in flight. Safe on any trainer; idempotent.
func (t *Trainer) Close() {
	if t.coll != nil {
		t.coll.Close()
	}
}

// CollectiveStats snapshots the collective runtime's per-class executed
// traffic (bytes, messages, steps). ok is false on EngineReference,
// which has no transport.
func (t *Trainer) CollectiveStats() (s collective.Stats, ok bool) {
	if t.coll == nil {
		return collective.Stats{}, false
	}
	return t.coll.rt.Stats(), true
}

// Stages returns replica 0's stage chain (for evaluation).
func (t *Trainer) Stages() []*model.Stage { return t.replicas[0] }

// Plan returns the compiled communication/compression plan the trainer
// executes.
func (t *Trainer) Plan() *plan.Plan { return t.plan }

// Engine returns the execution engine.
func (t *Trainer) Engine() Engine { return t.cfg.Engine }

// ExecutedBackwardActions returns the [stage][micro] compression grid
// the engine actually applied to group 0's backward sends during the
// last iteration (a copy; identical across groups by construction —
// the crosscheck tests compare it against the plan and the simulator).
func (t *Trainer) ExecutedBackwardActions() [][]bool {
	out := make([][]bool, len(t.exec.bwd))
	for s := range t.exec.bwd {
		out[s] = append([]bool(nil), t.exec.bwd[s]...)
	}
	return out
}

// ExecutedCompressedStages returns the per-stage DP-sync compression the
// engine actually applied (a copy), and whether a DP sync ran at all.
func (t *Trainer) ExecutedCompressedStages() ([]bool, bool) {
	return append([]bool(nil), t.exec.dp...), t.exec.dpRan
}

// ExecutedEmbedding returns the §6 strategy the engine actually ran,
// and whether an embedding sync executed.
func (t *Trainer) ExecutedEmbedding() (plan.EmbeddingStrategy, bool) {
	return t.exec.emb, t.exec.embRan
}

// ExecutedDPBuckets returns the aggregate wire volume the collective
// runtime actually moved per (stage, bucket) during the last DP sync (a
// copy, aligned with the plan's bucket schedule), and whether a
// runtime-accounted DP sync ran at all (false on the reference engine
// and on single-group grids).
func (t *Trainer) ExecutedDPBuckets() ([][]int64, bool) {
	out := make([][]int64, len(t.exec.dpBuckets))
	for s := range t.exec.dpBuckets {
		out[s] = append([]int64(nil), t.exec.dpBuckets[s]...)
	}
	return out, t.exec.dpRan && t.coll != nil
}

// DPSyncExposedNs returns the cumulative wall time TrainIteration spent
// blocked on data-parallel synchronization after the backward pass — the
// executed exposed communication. Under overlapped sync this is only the
// tail the backward compute could not hide; under blocking sync it is
// the whole synchronization.
func (t *Trainer) DPSyncExposedNs() int64 { return t.dpWait.Load() }

// Recorder returns the executed-run span recorder (nil unless tracing
// is enabled via Config.TraceCapacity).
func (t *Trainer) Recorder() *obs.Recorder { return t.rec }

// Metrics snapshots the trainer's counter registry, folding in the
// collective runtime's per-class traffic, the sparse-reduction
// accounting, and the recorder's span counts at call time.
func (t *Trainer) Metrics() *obs.Registry {
	m := t.metrics
	if t.coll != nil {
		st := t.coll.rt.Stats()
		for _, c := range collective.Classes() {
			cs := st.For(c)
			m.Set("collective."+c.String()+".bytes", cs.Bytes)
			m.Set("collective."+c.String()+".messages", cs.Messages)
			m.Set("collective."+c.String()+".steps", cs.Steps)
		}
		sp := t.coll.rt.SparseReduceStats()
		m.Set("collective.sparse_reduce.ops", sp.SparseOps)
		m.Set("collective.sparse_reduce.dense_fallbacks", sp.DenseFallbacks)
	}
	if t.rec != nil {
		m.Set("trace.spans", t.rec.Count())
		m.Set("trace.dropped", t.rec.Dropped())
	}
	return m
}

// DPSyncMode returns the synchronization mode the trainer runs.
func (t *Trainer) DPSyncMode() DPSyncMode { return t.cfg.DPSync }

// Pool returns the trainer's workspace pool (exposed for benchmarks and
// pool-reuse assertions).
func (t *Trainer) Pool() *tensor.Pool { return t.pool }

// Config returns the trainer's configuration.
func (t *Trainer) Config() Config { return t.cfg }

// Stats returns collected Fig. 11 statistics (nil unless enabled).
func (t *Trainer) Stats() *Stats { return t.stats }

// Iteration returns the number of completed training iterations.
func (t *Trainer) Iteration() int { return t.iter }

// TrainIteration runs one full iteration (all micro-batches on all DP
// groups, gradient synchronization, embedding sync, optimizer step) and
// returns the mean training loss.
func (t *Trainer) TrainIteration() float64 {
	cfg := t.cfg
	// Pre-sample every micro-batch in a fixed order so parallel and
	// sequential group execution see identical data.
	batches := make([][]microBatch, cfg.DPGroups)
	for d := 0; d < cfg.DPGroups; d++ {
		batches[d] = make([]microBatch, cfg.MicroBatches)
		for mi := 0; mi < cfg.MicroBatches; mi++ {
			ctx, tgt := t.corpus.SampleBatch(t.rng, cfg.MicroBatch, cfg.Model.Context)
			batches[d][mi] = microBatch{contexts: ctx, targets: tgt}
		}
	}
	losses := make([]float64, cfg.DPGroups)
	pipeStart := t.rec.Now()
	if t.coll != nil {
		t.runPipelined(batches, losses)
	} else {
		t.runSerial(batches, losses)
	}
	t.rec.Record(t.traceDriver(), obs.PhasePipeline, obs.LinkNone, pipeStart, 0, -1, -1, -1)
	var lossSum float64
	for _, l := range losses {
		lossSum += l
	}
	t.lastLossSum = lossSum
	t.syncDataParallel()
	embStart := t.rec.Now()
	t.syncEmbedding()
	t.rec.Record(t.traceDriver(), obs.PhaseEmbSync, obs.LinkEmb, embStart, 0, -1, -1, -1)
	if cfg.Schedule != nil {
		t.opt.LR = cfg.Schedule.LR(t.iter)
	}
	for d := 0; d < cfg.DPGroups; d++ {
		for s := range t.replicas[d] {
			// Under Dist only the local rank's gradients were produced and
			// synchronized; stepping a remote rank's replica would fold in
			// garbage. Every process steps exactly its own stage.
			if !t.localRank(d, s) {
				continue
			}
			optStart := t.rec.Now()
			t.opt.Step(t.params[d][s], t.grads[d][s])
			t.rec.Record(t.traceTrack(d, s), obs.PhaseOpt, obs.LinkNone, optStart, 0, s, d, -1)
		}
	}
	t.iter++
	t.iters.Add(1)
	return lossSum / float64(cfg.DPGroups*cfg.MicroBatches)
}

// localRank reports whether rank (d, s) executes in this process. Always
// true on in-process transports and the reference engine; under Dist
// exactly one (d, s) is local.
func (t *Trainer) localRank(d, s int) bool {
	if t.coll == nil {
		return true
	}
	return t.coll.rt.LocalRank(t.coll.topo.Rank(d, s))
}

// LastIterationLossSum returns the last iteration's raw (unnormalized)
// loss sum over the DP groups this process executed. In a single-process
// run this is the mean loss × DPGroups×MicroBatches; under Dist each
// process contributes its local group's sum and the launcher divides the
// aggregate by DPGroups×MicroBatches to recover the same mean.
func (t *Trainer) LastIterationLossSum() float64 { return t.lastLossSum }

// runSerial executes every group's micro-batches with the serial
// in-loop path — the EngineReference oracle the pipeline executor is
// pinned against bit for bit.
func (t *Trainer) runSerial(batches [][]microBatch, losses []float64) {
	cfg := t.cfg
	inv := 1.0 / float64(cfg.MicroBatches)
	for d := 0; d < cfg.DPGroups; d++ {
		for _, gs := range t.grads[d] {
			for _, g := range gs {
				g.Zero()
			}
		}
		for mi := 0; mi < cfg.MicroBatches; mi++ {
			losses[d] += t.runMicroBatch(d, mi, batches[d][mi])
		}
		// Average gradient over micro-batches (each micro's loss gradient
		// is already 1/MicroBatch).
		for _, gs := range t.grads[d] {
			for _, g := range gs {
				g.Scale(inv)
			}
		}
	}
}

// microBatch is one pre-sampled (contexts, targets) pair.
type microBatch struct {
	contexts [][]int
	targets  []int
}

// runMicroBatch executes forward + backward for one micro-batch on one DP
// group, applying compressed backpropagation to the inter-stage backward
// traffic. It runs only on the reference engine, which has no transport:
// nothing is accounted.
func (t *Trainer) runMicroBatch(d, mi int, mb microBatch) float64 {
	cfg := t.cfg
	stages := t.replicas[d]
	contexts, targets := mb.contexts, mb.targets

	// Forward wave (uncompressed: §5 notes compressing forward traffic
	// breaks convergence).
	acts := make([]*tensor.Matrix, cfg.Stages)
	fStart := t.rec.Now()
	h := stages[0].ForwardTokens(contexts)
	t.rec.Record(t.traceTrack(d, 0), obs.PhaseFwd, obs.LinkNone, fStart, 0, 0, d, mi)
	acts[0] = h
	for s := 1; s < cfg.Stages; s++ {
		fStart = t.rec.Now()
		h = stages[s].ForwardHidden(h)
		t.rec.Record(t.traceTrack(d, s), obs.PhaseFwd, obs.LinkNone, fStart, 0, s, d, mi)
		acts[s] = h
	}
	last := stages[cfg.Stages-1]
	logits := last.Logits(h)
	loss, dLogits := model.CrossEntropy(logits, targets)

	// Backward wave with compressed backpropagation on each boundary.
	var g *tensor.Matrix
	bStart := t.rec.Now()
	if cfg.Stages == 1 {
		last.BackwardLogits(dLogits)
		t.rec.Record(t.traceTrack(d, 0), obs.PhaseBwd, obs.LinkNone, bStart, 0, 0, d, mi)
		return loss
	}
	g = last.BackwardLogits(dLogits)
	t.rec.Record(t.traceTrack(d, cfg.Stages-1), obs.PhaseBwd, obs.LinkNone, bStart, 0, cfg.Stages-1, d, mi)
	for s := cfg.Stages - 1; s >= 1; s-- {
		sent, pooled := t.transferBackward(d, s, mi, g, acts[s-1])
		bStart = t.rec.Now()
		if s-1 == 0 {
			stages[0].BackwardHidden(sent)
		} else {
			g = stages[s-1].BackwardHidden(sent)
		}
		t.rec.Record(t.traceTrack(d, s-1), obs.PhaseBwd, obs.LinkNone, bStart, 0, s-1, d, mi)
		if pooled {
			t.pool.Put(sent)
		}
	}
	return loss
}

// transferBackward hands the activation gradient g from stage s to s−1,
// compressing per the plan. fwdAct is the forward activation at the
// boundary (for Fig. 11 statistics). The second result reports whether
// the returned matrix was borrowed from the trainer's pool — the caller
// must Put it back once the receiving stage has consumed it. (The lazy-
// error-propagation reconstruction is ErrorFeedback-owned scratch and must
// not be returned to the pool.)
func (t *Trainer) transferBackward(d, s, mi int, g, fwdAct *tensor.Matrix) (sent *tensor.Matrix, pooled bool) {
	compressed := t.plan.CompressBackward(s, mi)
	if d == 0 {
		t.exec.bwd[s][mi] = compressed
	}
	if !compressed {
		return g, false
	}
	ef := t.cb[d][s]
	var recon *tensor.Matrix
	if t.plan.LazyErrorPropagation() {
		_, recon = ef.CompressWithFeedback(g)
	} else {
		pl := ef.Inner().Compress(g)
		recon = t.pool.GetUninit(g.Rows, g.Cols) // DecompressInto writes every element
		pooled = true
		ef.Inner().DecompressInto(recon, pl)
	}
	if t.stats != nil && d == 0 && s == 1 {
		t.stats.Record(g, recon, fwdAct)
	}
	return recon, pooled
}
