package train

import (
	"sync/atomic"

	"repro/internal/collective"
	"repro/internal/compress"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// collectiveState wires the trainer onto the rank-based collective
// runtime (internal/collective): a DP×PP topology over the replica grid,
// one long-lived group per communication pattern, and the per-op buffer
// and compressor lists cached up front so the steady-state sync path
// allocates nothing. It exists exactly on the pipelined engine.
//
// The runtime's deterministic ring collectives are bit-identical to the
// serial reference reductions in comm.go, which stay as EngineReference's
// sync and as the oracle for the equivalence tests.
type collectiveState struct {
	topo collective.Topology
	rt   *collective.Runtime

	// dp[s] is stage s's data-parallel group (ranks in replica order) and
	// buckets[s][b] the channel list of its bucket b — the plan's DP-sync
	// bucket schedule bound to the replicas' gradient buffers, built once
	// so the per-iteration issue path never allocates. A channel carries
	// the trainer's per-rank error-feedback compressors where the §7
	// selection compresses stage s and the gradient's shape is
	// compressible, and reduces exactly otherwise.
	dp      []*collective.Group
	buckets [][][]collective.Channel

	// arrivals[s] counts the DP ranks executing in this process whose
	// stage-s gradients are not yet final this iteration; under
	// overlapped sync the rank that decrements it to zero issues the
	// stage's buckets. armArrivals re-arms it from localGroups[s]: D in a
	// single-process run, one per local stage under Dist, where the
	// stage's buckets issue the moment its sole local rank finishes (the
	// remote members' zero-local-rank group ops complete immediately, so
	// issue order cannot deadlock). handles[s][b] is stage s's in-flight
	// bucket b, written by its issuer and drained by waitDPSync. All
	// three exist exactly when D > 1.
	arrivals    []atomic.Int32
	localGroups []int32
	handles     [][]*collective.Pending

	// embFused is the §6 fused group — (first, last) of every replica in
	// the serial reduction order; with a single stage it degenerates to
	// the stage-0 DP group and embFusedBufs holds one buffer per replica.
	embFused     *collective.Group
	embFusedBufs []*tensor.Matrix
	// embSide are the two D-way per-side groups of the baseline (Fig. 7a
	// phase 1); embPairs the per-replica 2-way sum groups (phase 2).
	embSide     [2]*collective.Group
	embSideBufs [2][]*tensor.Matrix
	embPairs    []*collective.Group
	embPairBufs [][]*tensor.Matrix
}

// DistConfig attaches a trainer to a process-per-rank run: every rank of
// the DP×PP grid is its own OS process, and this process executes exactly
// one of them. Each process constructs the FULL trainer — identical
// seeds give identical initial weights, and every process pre-samples
// every group's batches so the shared RNG sequence never diverges — but
// executes only its local rank's schedule ops, synchronization share,
// and optimizer step; the rest of its replicas are dead weight whose
// gradients are never produced, synchronized, or applied. The grid's
// results are therefore bit-identical, rank for rank, to the in-process
// run: the oracle tests compare each process's local-stage weights and
// the aggregated per-class transport Stats at tolerance zero.
type DistConfig struct {
	// Transport is the remote transport (Remote() == true) this process
	// sends as. Its LocalRank selects the (dp, stage) rank through the
	// DP-major collective topology; its world must equal DPGroups×Stages.
	// The trainer does not close it — the caller owns its lifecycle.
	Transport collective.Transport
}

// newCollectiveState builds the runtime and all groups for a trainer
// whose replicas and gradient caches are already in place.
func newCollectiveState(t *Trainer) *collectiveState {
	cfg := t.cfg
	topo, err := collective.NewTopology(cfg.DPGroups, cfg.Stages)
	if err != nil {
		panic(err) // unreachable: Config.Validate bounds both axes ≥ 1
	}
	var tr collective.Transport
	if cfg.Dist != nil {
		// Process-per-rank: the caller's remote transport carries every
		// message; the runtime spawns a worker only for its local rank.
		tr = cfg.Dist.Transport
	} else {
		// The point-to-point queues are sized for the 1F1B schedule's
		// worst-case skew (one message per micro-batch per link direction),
		// so a pipeline rank running ahead never blocks and the executor is
		// deadlock-free by construction.
		tr = collective.NewMemTransportDepth(topo.World(), t.sched.MaxLinkBacklog())
	}
	cs := &collectiveState{
		topo: topo,
		rt:   collective.NewRuntime(topo, tr, t.pool),
	}

	// Per-stage DP groups and the plan's bucket schedule as channel lists.
	cs.dp = make([]*collective.Group, cfg.Stages)
	cs.buckets = make([][][]collective.Channel, cfg.Stages)
	for s := 0; s < cfg.Stages; s++ {
		cs.dp[s] = cs.rt.NewGroup(collective.ClassDP, topo.DPGroup(s))
		for _, b := range t.plan.Buckets(s) {
			chans := make([]collective.Channel, len(b.Channels))
			for i, gi := range b.Channels {
				ch := &chans[i]
				ch.Bufs = make([]*tensor.Matrix, cfg.DPGroups)
				for dd := range ch.Bufs {
					ch.Bufs[dd] = t.grads[dd][s][gi]
				}
				if t.dpEFs[s][0][gi] != nil {
					ch.EFs = make([]*compress.ErrorFeedback, cfg.DPGroups)
					for dd := range ch.EFs {
						ch.EFs[dd] = t.dpEFs[s][dd][gi]
					}
				}
			}
			cs.buckets[s] = append(cs.buckets[s], chans)
		}
	}
	if cfg.DPGroups > 1 {
		cs.arrivals = make([]atomic.Int32, cfg.Stages)
		cs.localGroups = make([]int32, cfg.Stages)
		cs.handles = make([][]*collective.Pending, cfg.Stages)
		for s := 0; s < cfg.Stages; s++ {
			cs.handles[s] = make([]*collective.Pending, len(cs.buckets[s]))
			for dd := 0; dd < cfg.DPGroups; dd++ {
				if cs.rt.LocalRank(topo.Rank(dd, s)) {
					cs.localGroups[s]++
				}
			}
		}
	}

	// Embedding groups (§6). Only the path the (immutable) plan selects
	// is built: none on a single rank, the fused 2D-way group — whose
	// ring order matches the serial fused reduction Σ_d (first_d +
	// last_d) — or the baseline's per-side and per-replica groups.
	last := cfg.Stages - 1
	switch t.plan.Embedding() {
	case plan.EmbNone:
	case plan.EmbDPOnly, plan.EmbFused:
		cs.embFused = cs.rt.NewGroup(collective.ClassEmb, topo.EmbGroup())
		for dd := 0; dd < cfg.DPGroups; dd++ {
			cs.embFusedBufs = append(cs.embFusedBufs, t.replicas[dd][0].EmbeddingGrad())
			if cfg.Stages > 1 {
				cs.embFusedBufs = append(cs.embFusedBufs, t.replicas[dd][last].EmbeddingGrad())
			}
		}
	default:
		for side, stage := range [2]int{0, last} {
			cs.embSide[side] = cs.rt.NewGroup(collective.ClassEmb, topo.DPGroup(stage))
			bufs := make([]*tensor.Matrix, cfg.DPGroups)
			for dd := 0; dd < cfg.DPGroups; dd++ {
				bufs[dd] = t.replicas[dd][stage].EmbeddingGrad()
			}
			cs.embSideBufs[side] = bufs
		}
		for dd := 0; dd < cfg.DPGroups; dd++ {
			cs.embPairs = append(cs.embPairs, cs.rt.NewGroup(collective.ClassEmb, topo.EmbPair(dd)))
			cs.embPairBufs = append(cs.embPairBufs, []*tensor.Matrix{
				t.replicas[dd][0].EmbeddingGrad(),
				t.replicas[dd][last].EmbeddingGrad(),
			})
		}
	}
	return cs
}

// armArrivals re-arms the per-stage arrival counters for a new
// iteration (a no-op when D == 1).
func (cs *collectiveState) armArrivals() {
	for s := range cs.arrivals {
		cs.arrivals[s].Store(cs.localGroups[s])
	}
}

// syncEmbedding runs the §6 phase the plan selected on the runtime: the
// fused 2D-way all-reduce (Fig. 7b, Eq. 16) or the baseline per-side
// averages plus per-replica sums (Fig. 7a, Eq. 15). Traffic lands on
// ClassEmb.
func (cs *collectiveState) syncEmbedding(t *Trainer) {
	cfg := t.cfg
	d := float64(cfg.DPGroups)
	strategy := t.plan.Embedding()
	t.exec.emb, t.exec.embRan = strategy, true
	switch strategy {
	case plan.EmbNone:
		// Single rank: the table is shared in place; nothing to sync.
		return
	case plan.EmbDPOnly:
		// The table is shared in place; only the DP average remains.
		cs.embFused.AllReduce(cs.embFusedBufs, 1/d)
		return
	case plan.EmbFused:
		// One 2D-way all-reduce: Σ over both sides and all replicas, /D.
		cs.embFused.AllReduce(cs.embFusedBufs, 1/d)
		return
	}
	// Phase 1: EMB DP — D-way average per side.
	if cfg.DPGroups > 1 {
		for side := range cs.embSide {
			cs.embSide[side].AllReduce(cs.embSideBufs[side], 1/d)
		}
	}
	// Phase 2: EMB Sync — 2-way sum between first and last stages.
	for dd := range cs.embPairs {
		cs.embPairs[dd].AllReduce(cs.embPairBufs[dd], 1)
	}
}

// Close releases the runtime's rank workers.
func (cs *collectiveState) Close() { cs.rt.Close() }
