package train

import (
	"repro/internal/plan"
	"repro/internal/tensor"
)

// syncDataParallel averages gradients across DP groups per stage. Stages
// selected by selective stage compression (§7) go through a lossy
// PowerSGD round with error feedback per group (the §2.3 mechanism);
// everything else is averaged exactly. Embedding-table gradients are
// excluded here — they belong to the embedding-synchronization phase (§6).
//
// On the pipelined engine the plan's buckets run on the collective
// runtime and waitDPSync drains their handles (issuing them first under
// blocking sync). The reference engine keeps the in-place serial
// reduction as the oracle. Averaging buffers come from the trainer's
// pool, so steady-state sync performs no matrix allocations.
func (t *Trainer) syncDataParallel() {
	if t.cfg.DPGroups <= 1 {
		return
	}
	t.exec.dpRan = true
	if t.coll != nil {
		t.waitDPSync()
		return
	}
	for s := 0; s < t.cfg.Stages; s++ {
		t.syncStageSerial(s)
	}
}

// syncStageSerial averages (optionally compressing) every non-embedding
// gradient of stage s across the DP groups, in place, with the fully
// serial reduction — EngineReference's sync and the bit-identity oracle
// for both runtime sync modes.
func (t *Trainer) syncStageSerial(s int) {
	t.exec.dp[s] = t.plan.DPCompressed(s)
	d := t.cfg.DPGroups
	for gi, g0 := range t.grads[0][s] {
		if t.embSkip[g0] {
			continue
		}
		avg := t.pool.Get(g0.Rows, g0.Cols)
		for dd := 0; dd < d; dd++ {
			g := t.grads[dd][s][gi]
			if ef := t.dpEFs[s][dd][gi]; ef != nil {
				_, recon := ef.CompressWithFeedback(g)
				avg.Add(recon)
			} else {
				avg.Add(g)
			}
		}
		avg.Scale(1 / float64(d))
		for dd := 0; dd < d; dd++ {
			t.grads[dd][s][gi].CopyFrom(avg)
		}
		t.pool.Put(avg)
	}
}

// compressibleShape reports whether low-rank compression of g is
// meaningful: vectors (biases, norm parameters) are left dense, as real
// PowerSGD deployments do.
func compressibleShape(g *tensor.Matrix) bool { return g.Rows > 1 && g.Cols > 1 }

// syncEmbedding synchronizes the tied embedding table's gradients: the
// input-side gradient (first stage) and the output-side gradient (last
// stage) must be summed, and the sum averaged across DP groups. The
// baseline does this in two phases (a D-way average per side, then a
// 2-way sum between the sides: Fig. 7a); fused embedding synchronization
// does it in one 2D-way operation (Fig. 7b). The results are
// mathematically identical — only the communication cost differs, which
// tests assert. All scratch comes from the trainer's pool.
func (t *Trainer) syncEmbedding() {
	if t.coll != nil {
		t.coll.syncEmbedding(t)
		return
	}
	cfg := t.cfg
	dN := float64(cfg.DPGroups)
	strategy := t.plan.Embedding()
	t.exec.emb, t.exec.embRan = strategy, true
	switch strategy {
	case plan.EmbNone:
		// Single rank: the table is shared in place; nothing to sync.
		return
	case plan.EmbDPOnly:
		// Single stage: only the DP average remains.
		g0 := t.replicas[0][0].EmbeddingGrad()
		avg := t.pool.Get(g0.Rows, g0.Cols)
		for dd := 0; dd < cfg.DPGroups; dd++ {
			avg.Add(t.replicas[dd][0].EmbeddingGrad())
		}
		avg.Scale(1 / dN)
		for dd := 0; dd < cfg.DPGroups; dd++ {
			t.replicas[dd][0].EmbeddingGrad().CopyFrom(avg)
		}
		t.pool.Put(avg)
		return
	}
	last := cfg.Stages - 1
	if strategy == plan.EmbFused {
		// One 2D-way all-reduce: Σ over both sides and all groups, /D.
		g0 := t.replicas[0][0].EmbeddingGrad()
		total := t.pool.Get(g0.Rows, g0.Cols)
		for dd := 0; dd < cfg.DPGroups; dd++ {
			total.Add(t.replicas[dd][0].EmbeddingGrad())
			total.Add(t.replicas[dd][last].EmbeddingGrad())
		}
		total.Scale(1 / dN)
		for dd := 0; dd < cfg.DPGroups; dd++ {
			t.replicas[dd][0].EmbeddingGrad().CopyFrom(total)
			t.replicas[dd][last].EmbeddingGrad().CopyFrom(total)
		}
		t.pool.Put(total)
		return
	}
	// Phase 1: EMB DP — D-way average per side.
	for _, stage := range []int{0, last} {
		g0 := t.replicas[0][stage].EmbeddingGrad()
		avg := t.pool.Get(g0.Rows, g0.Cols)
		for dd := 0; dd < cfg.DPGroups; dd++ {
			avg.Add(t.replicas[dd][stage].EmbeddingGrad())
		}
		avg.Scale(1 / dN)
		for dd := 0; dd < cfg.DPGroups; dd++ {
			t.replicas[dd][stage].EmbeddingGrad().CopyFrom(avg)
		}
		t.pool.Put(avg)
	}
	// Phase 2: EMB Sync — 2-way sum between first and last stages.
	for dd := 0; dd < cfg.DPGroups; dd++ {
		first := t.replicas[dd][0].EmbeddingGrad()
		lastG := t.replicas[dd][last].EmbeddingGrad()
		sum := t.pool.GetUninit(first.Rows, first.Cols) // AddScaledInto writes every element
		tensor.AddScaledInto(sum, first, 1, lastG)
		first.CopyFrom(sum)
		lastG.CopyFrom(sum)
		t.pool.Put(sum)
	}
}
