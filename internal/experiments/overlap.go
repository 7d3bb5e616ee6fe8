package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/train"
)

// OverlapResult validates the overlapped bucketed DP-sync path from both
// sides. The first table runs real training with blocking vs overlapped
// synchronization — same plan, same bucket schedule, bit-identical
// weights — and reports executed dp wire volume (equal by construction)
// next to the exposed synchronization time (overlap's win). The second
// table is the simulator's overlap prediction for the paper scenario,
// read off its solved iteration graph: per stage, the DP task's
// duration, its backward-compute hide window and its exposed tail — the
// quantity the old scalar could not express.
type OverlapResult struct {
	exec table
	pred table
}

// Render implements Result.
func (r *OverlapResult) Render() string { return r.exec.Render() + "\n" + r.pred.Render() }

// OverlapExperiment runs the validation.
func OverlapExperiment(o Options) (*OverlapResult, error) {
	corpus, err := Corpus()
	if err != nil {
		return nil, err
	}
	res := &OverlapResult{
		exec: table{
			title: "Executed DP sync: blocking barrier vs overlapped bucketed all-reduce",
			cols:  []string{"config", "mode", "buckets", "dp B/iter", "exposed µs/iter", "loss@end"},
			notes: []string{
				"both modes run the identical compiled bucket schedule; weights are bit-identical",
				"exposed = wall time the iteration blocks on DP sync after backward (hidden work excluded)",
			},
		},
		pred: table{
			title: "Simulator overlap model (GPT-2.5B paper scenario, per stage)",
			cols:  []string{"stage", "buckets", "comm (s)", "hide (s)", "exposed (s)"},
			notes: []string{"hide = last backward finish − DP start; exposed = max(0, DP finish − last backward finish), from the solved iteration graph"},
		},
	}

	iters := o.Iterations / 10
	if iters < 20 {
		iters = 20
	}
	for _, cse := range []struct {
		name string
		opt  core.Config
	}{
		{"baseline", core.Baseline()},
		{"cbfesc", core.CBFESC()},
	} {
		var finals [2]float64
		var wires [2]int64
		for i, mode := range []train.DPSyncMode{train.DPSyncBlocking, train.DPSyncOverlapped} {
			cfg := o.trainConfig(cse.opt)
			cfg.DPSync = mode
			tr, err := trainNew(cfg, corpus)
			if err != nil {
				return nil, err
			}
			finals[i] = tr.Train(iters, nil)
			st, _ := tr.CollectiveStats()
			wires[i] = st.For(collective.ClassDP).Bytes / int64(tr.Iteration())
			var buckets int
			for s := 0; s < cfg.Stages; s++ {
				buckets += tr.Plan().BucketCount(s)
			}
			res.exec.add(cse.name, mode.String(), fmt.Sprint(buckets),
				fmt.Sprint(wires[i]),
				f2(float64(tr.DPSyncExposedNs())/float64(tr.Iteration())/1e3),
				fmt.Sprintf("%.6f", finals[i]))
			tr.Close()
		}
		if finals[0] != finals[1] {
			return nil, fmt.Errorf("overlap: modes diverged on %s: %v vs %v", cse.name, finals[0], finals[1])
		}
		if wires[0] != wires[1] {
			return nil, fmt.Errorf("overlap: executed dp volume differs across modes on %s: %d vs %d", cse.name, wires[0], wires[1])
		}
	}

	ov, err := sim.PredictDPOverlap(sim.PaperScenario(cluster.GPT25B, core.Baseline()))
	if err != nil {
		return nil, err
	}
	for _, so := range ov.Stages {
		res.pred.add(fmt.Sprint(so.Stage), fmt.Sprint(so.Buckets),
			f3(so.CommSec), f3(so.HideSec), f3(so.ExposedSec))
	}
	res.pred.notes = append(res.pred.notes,
		fmt.Sprintf("iteration-level: comm %.3fs, exposed %.3fs (stages drain on disjoint NICs)", ov.CommSec, ov.ExposedSec))
	return res, nil
}
