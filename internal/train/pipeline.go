package train

import (
	"sync"

	"repro/internal/collective"
	"repro/internal/compress"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// The 1F1B pipeline executor: one goroutine per (dp group, stage) rank,
// each running its stage's schedule ops in order and shipping forward
// activations and backward activation-gradients to its pipeline
// neighbours over the collective runtime's point-to-point transport —
// the executable counterpart of the serial in-loop path in runSerial.
// It runs every grid of the pipelined engine; on a single-stage grid
// each rank is stage 0 and the last stage at once, with no neighbours.
//
// Bit-identity with the serial oracle holds by construction:
//
//   - per-stage gradient accumulation follows the schedule's backward
//     order, which OneFOneB guarantees is micro-batch order — exactly
//     the serial loop's order;
//   - each boundary's error-feedback compressor cb[d][s] is driven by
//     its sending rank alone, in that same micro-batch order, so the
//     lazy-error-propagation residual sequence is unchanged (§5.1);
//   - per-group losses accumulate on the last stage in forward
//     (micro-batch) order.
//
// The transport's point-to-point queues hold one message per micro-batch
// per link direction (Schedule.MaxLinkBacklog), so sends never block and
// the executor cannot deadlock; Recv ordering per link is FIFO, which
// matches the schedule because forwards and backwards each occur in
// micro-batch order on every stage.

// runPipelined executes one iteration's pre-sampled micro-batches on the
// pipeline executor, accumulating per-group losses into losses (written
// only by each group's last-stage rank).
func (t *Trainer) runPipelined(batches [][]microBatch, losses []float64) {
	cfg := t.cfg
	t.coll.armArrivals()
	var wg sync.WaitGroup
	for d := 0; d < cfg.DPGroups; d++ {
		for s := 0; s < cfg.Stages; s++ {
			// Under Dist only this process's rank runs; its pipeline
			// neighbours execute in their own processes and the transport
			// carries the boundary crossings.
			if !t.localRank(d, s) {
				continue
			}
			wg.Add(1)
			go func(d, s int) {
				defer wg.Done()
				t.runStageRank(d, s, batches[d], &losses[d])
			}(d, s)
		}
	}
	wg.Wait()
}

// runStageRank is rank (d, s)'s worker: zero the stage's gradient
// accumulators, execute the stage's schedule ops in order, then average
// the accumulated gradients over the micro-batches. Only rank (d, s)
// touches stage s of replica d, so no locks are needed; the transport
// handoffs provide the inter-rank happens-before edges.
func (t *Trainer) runStageRank(d, s int, mbs []microBatch, loss *float64) {
	cfg := t.cfg
	st := t.replicas[d][s]
	rt := t.coll.rt
	topo := t.coll.topo
	last := cfg.Stages - 1
	self := topo.Rank(d, s)
	var up, down int
	if s > 0 {
		up = topo.Rank(d, s-1)
	}
	if s < last {
		down = topo.Rank(d, s+1)
	}

	for _, g := range t.grads[d][s] {
		g.Zero()
	}

	// dLogits carries the last stage's loss gradient from each micro-
	// batch's forward op to its backward op. fwdIn retains the received
	// forward activations on the boundary the Fig. 11 statistics observe,
	// for Stats.Record at backward time. Both are indexed by micro-batch.
	var dLogits, fwdIn []*tensor.Matrix
	if s == last {
		dLogits = make([]*tensor.Matrix, cfg.MicroBatches)
	}
	trackFwd := t.stats != nil && d == 0 && s == 1
	if trackFwd {
		fwdIn = make([]*tensor.Matrix, cfg.MicroBatches)
	}
	rec, track := t.rec, t.traceTrack(d, s)

	for _, op := range t.sched.PerStage[s] {
		mi := op.Micro
		if op.Kind == pipeline.Forward {
			// The compute span starts after the upstream Recv, so waiting
			// on a neighbour shows up as track idle time, not as compute.
			var h *tensor.Matrix
			var fStart int64
			if s == 0 {
				fStart = rec.Now()
				h = st.ForwardTokens(mbs[mi].contexts)
			} else {
				// The stage borrows the received activation until this
				// micro-batch's backward; nothing recycles it, so it is
				// the garbage collector's afterwards.
				in, _ := rt.Recv(collective.ClassPP, self, up)
				if trackFwd {
					fwdIn[mi] = in
				}
				fStart = rec.Now()
				h = st.ForwardHidden(in)
			}
			if s < last {
				rec.Record(track, obs.PhaseFwd, obs.LinkNone, fStart, 0, s, d, mi)
				wire := h.SizeBytes(compress.ElemBytes)
				sStart := rec.Now()
				rt.Send(collective.ClassPP, self, down, h)
				rec.Record(track, obs.PhaseSendFwd, obs.LinkPP, sStart, wire, s, d, mi)
			} else {
				logits := st.Logits(h)
				l, dl := model.CrossEntropy(logits, mbs[mi].targets)
				*loss += l
				dLogits[mi] = dl
				rec.Record(track, obs.PhaseFwd, obs.LinkNone, fStart, 0, s, d, mi)
			}
			continue
		}

		// Backward op.
		var g *tensor.Matrix
		var bStart int64
		if s == last {
			bStart = rec.Now()
			g = st.BackwardLogits(dLogits[mi])
			dLogits[mi] = nil
		} else {
			in, pooled := rt.Recv(collective.ClassPP, self, down)
			bStart = rec.Now()
			g = st.BackwardHidden(in)
			// The stage only read what it was handed; a reconstruction
			// borrowed from the shared pool goes back there.
			if pooled {
				t.pool.Put(in)
			}
		}
		rec.Record(track, obs.PhaseBwd, obs.LinkNone, bStart, 0, s, d, mi)
		if s == 0 {
			continue // stage 0's BackwardHidden returned nil; nothing to ship
		}
		var fwdAct *tensor.Matrix
		if trackFwd {
			fwdAct, fwdIn[mi] = fwdIn[mi], nil
		}
		t.pipeSendBackward(d, s, mi, g, fwdAct)
	}

	inv := 1.0 / float64(cfg.MicroBatches)
	for _, g := range t.grads[d][s] {
		g.Scale(inv)
	}
	// This rank's gradients are final; under overlapped DP sync the last
	// of the stage's D ranks to get here issues the stage's bucketed
	// all-reduces — on the rank workers, concurrently with the backward
	// compute still running on other stages' rank goroutines.
	t.dpStageReady(s)
}

// pipeSendBackward ships the activation gradient g from stage s to s−1
// of group d over the transport, compressing per the configuration —
// the executable twin of transferBackward, sharing the same cb[d][s]
// error-feedback state and the same epilogue classification, so the
// compressed stream is bit-identical to the serial path's.
func (t *Trainer) pipeSendBackward(d, s, mi int, g, fwdAct *tensor.Matrix) {
	rt := t.coll.rt
	topo := t.coll.topo
	rec, track := t.rec, t.traceTrack(d, s)
	from, to := topo.Rank(d, s), topo.Rank(d, s-1)
	compressed := t.plan.CompressBackward(s, mi)
	if d == 0 {
		// Group 0's stage-s rank is the only writer of this row, so the
		// executor's concurrent ranks never race on the log.
		t.exec.bwd[s][mi] = compressed
	}
	if !compressed {
		wire := g.SizeBytes(compress.ElemBytes)
		sStart := rec.Now()
		rt.Send(collective.ClassPP, from, to, g)
		rec.Record(track, obs.PhaseSendBwd, obs.LinkPP, sStart, wire, s, d, mi)
		return
	}
	// CompressWithFeedback on a disabled ErrorFeedback (the non-LEP
	// ablation) degenerates to plain compress+reconstruct, so one call
	// covers both the LEP and non-LEP configurations bit for bit.
	//
	// Sparse families (TopK/RandomK) ship their payloads sparse-native:
	// no dense reconstruction on the send side, Recv densifies — the
	// residual stream and the received tensors are bit-identical to
	// SendCompressed, so the serial oracle needs no matching change. The
	// Fig. 11 statistics boundary needs the dense reconstruction, so it
	// keeps the dense path.
	if t.stats == nil || d != 0 || s != 1 {
		sStart := rec.Now()
		if wire, ok := rt.SendCompressedSparse(collective.ClassPP, from, to, g, t.cb[d][s]); ok {
			rec.Record(track, obs.PhaseSendBwd, obs.LinkPP, sStart, wire, s, d, mi)
			return
		}
	}
	sStart := rec.Now()
	wire, recon := rt.SendCompressed(collective.ClassPP, from, to, g, t.cb[d][s])
	rec.Record(track, obs.PhaseSendBwd, obs.LinkPP, sStart, wire, s, d, mi)
	if t.stats != nil && d == 0 && s == 1 {
		t.stats.Record(g, recon, fwdAct)
	}
}
