package main

import (
	"fmt"

	"repro/internal/autotune"
	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/train"
)

// tunePlan searches the placement space at paper scale on the trainer's
// DP×PP grid (TP8, the paper's node-local tensor parallelism) and
// returns the winner lowered onto the stand-in model's shapes plus the
// ranked table. The trainer then executes the winner, and
// verifyAutotuned pins the executed wire volumes to the prediction.
func tunePlan(cfg train.Config, seed int64, budget float64, top int) (core.Config, *autotune.Result, error) {
	eff, err := experiments.CalibratedEfficiency()
	if err != nil {
		return core.Config{}, nil, err
	}
	sc := sim.PaperScenario(cluster.GPT25B, core.Baseline())
	sc.Map = cluster.Mapping{TP: 8, DP: cfg.DPGroups, PP: cfg.Stages}
	sc.Topo.Efficiency = eff
	ev, err := sim.NewEvaluator(sc)
	if err != nil {
		return core.Config{}, nil, err
	}
	qm := autotune.DefaultQualityModel()
	qm.Budget = budget
	res, err := autotune.Search(ev, autotune.DefaultSpace(cfg.Stages), qm, autotune.Options{Seed: seed, Top: top})
	if err != nil {
		return core.Config{}, nil, err
	}
	return experiments.ScaledOpt(res.Winner.Config), res, nil
}

// verifyAutotuned closes the autotune loop after training: every
// executed wire volume — per collective class in aggregate, and DP sync
// bucket by bucket — must equal sim.PredictExecution's numbers at
// tolerance zero. A mismatch means the plan the trainer executed is not
// the plan the autotuner priced, and errors loudly.
func verifyAutotuned(tr *train.Trainer, iters int) error {
	pred := sim.PredictExecution(tr.Plan(), tr.Probes())
	st, ok := tr.CollectiveStats()
	if !ok {
		return fmt.Errorf("autotune: no collective transport to verify against (1×1 grid)")
	}
	for _, chk := range []struct {
		class collective.Class
		per   int64
	}{
		{collective.ClassPP, pred.PPBytes},
		{collective.ClassDP, pred.DPBytes},
		{collective.ClassEmb, pred.EmbBytes},
	} {
		got, want := st.For(chk.class).Bytes, chk.per*int64(iters)
		if got != want {
			return fmt.Errorf("autotune: executed %v volume %d B over %d iterations, predicted %d B (Δ %d)",
				chk.class, got, iters, want, got-want)
		}
	}
	if exec, ok := tr.ExecutedDPBuckets(); ok {
		if len(exec) != len(pred.DPBuckets) {
			return fmt.Errorf("autotune: %d executed DP-sync stages, predicted %d", len(exec), len(pred.DPBuckets))
		}
		for s := range pred.DPBuckets {
			if len(exec[s]) != len(pred.DPBuckets[s]) {
				return fmt.Errorf("autotune: stage %d executed %d buckets, predicted %d",
					s, len(exec[s]), len(pred.DPBuckets[s]))
			}
			for bi := range pred.DPBuckets[s] {
				if exec[s][bi] != pred.DPBuckets[s][bi] {
					return fmt.Errorf("autotune: stage %d bucket %d executed %d B, predicted %d B",
						s, bi, exec[s][bi], pred.DPBuckets[s][bi])
				}
			}
		}
	}
	fmt.Printf("autotune verify ok: executed pp/dp/emb volumes == prediction (tol 0) over %d iterations\n", iters)
	return nil
}
