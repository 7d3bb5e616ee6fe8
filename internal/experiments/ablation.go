package experiments

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Ablation experiments beyond the paper's own figures, exercising the
// design choices DESIGN.md calls out: the LEP×epilogue-only grid, PowerSGD
// warm starting, the compressor-family choice, and the pipeline-schedule
// choice.

// AblateLEPGrid trains the 2×2 grid of {lazy error propagation} ×
// {epilogue-only} plus the baseline, reporting validation perplexity.
// This decomposes Table 4 / Fig. 3 into the two enabler techniques'
// individual contributions.
func AblateLEPGrid(o Options) (Result, error) {
	t := &table{
		title: "Ablation — lazy error propagation × epilogue-only (validation PPL)",
		cols:  []string{"config", "LEP", "epilogue-only", "val PPL"},
		notes: []string{"paper: CB needs both; without epilogue-only it diverged, without LEP quality drops (Table 4)"},
	}
	_, basePPL, err := o.trainAndEval(core.Baseline())
	if err != nil {
		return nil, err
	}
	t.add("Baseline", "-", "-", f3(basePPL))
	for _, lep := range []bool{true, false} {
		for _, epi := range []bool{true, false} {
			cfg := core.CB()
			cfg.LazyErrorPropagation = lep
			cfg.EpilogueOnly = epi
			_, ppl, err := o.trainAndEval(cfg)
			if err != nil {
				return nil, err
			}
			t.add(cfg.Name(), onOff(lep), onOff(epi), f3(ppl))
		}
	}
	return t, nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// AblateWarmStart measures PowerSGD's warm-start design choice: relative
// reconstruction error over a slowly drifting gradient sequence, with and
// without reusing the previous Q factor (§2.3: PowerSGD "reuses the
// factorized matrix from the previous gradient compression stage").
func AblateWarmStart(o Options) (Result, error) {
	t := &table{
		title: "Ablation — PowerSGD warm start (mean relative error over a drifting gradient sequence)",
		cols:  []string{"rank", "warm start", "cold start", "improvement"},
	}
	rng := newRand(o.Seed)
	base := tensor.RandN(rng, 64, 96, 1)
	for _, rank := range []int{2, 4, 8} {
		warm := compress.NewInstrumented(compress.NewPowerSGD(rank, o.Seed))
		coldPS := compress.NewPowerSGD(rank, o.Seed)
		coldPS.SetWarmStart(false)
		cold := compress.NewInstrumented(coldPS)
		for step := 0; step < 40; step++ {
			g := base.Clone().AddScaled(0.02, tensor.RandN(rng, 64, 96, 1))
			warm.Compress(g)
			cold.Compress(g)
		}
		t.add(fmt.Sprintf("%d", rank), f3(warm.MeanRelError()), f3(cold.MeanRelError()),
			fmt.Sprintf("%.1f%%", (1-warm.MeanRelError()/cold.MeanRelError())*100))
	}
	return t, nil
}

// AblateCompressorFamily compares compression families on real gradients
// captured from a short training run: achieved wire ratio and mean
// relative error with error feedback. This grounds the paper's choice of
// low-rank over top-k/quantization for a fixed byte budget.
func AblateCompressorFamily(o Options) (Result, error) {
	c, err := Corpus()
	if err != nil {
		return nil, err
	}
	cfg := o.trainConfig(core.Baseline())
	tr, err := train.New(cfg, c)
	if err != nil {
		return nil, err
	}
	// Capture a sequence of real averaged block-weight gradients.
	var grads []*tensor.Matrix
	steps := o.Iterations / 10
	if steps < 8 {
		steps = 8
	}
	for i := 0; i < steps; i++ {
		tr.TrainIteration()
		g := tr.Stages()[1].Grads()[0] // first block weight of stage 1
		grads = append(grads, g.Clone())
	}
	h := grads[0].Rows
	// Byte-match the candidates to PowerSGD rank 4 on this shape.
	lrBytes := core.LowRankWireBytes(grads[0].Rows, grads[0].Cols, 4, compress.ElemBytes)
	frac := float64(lrBytes) / float64(compress.DenseBytes(grads[0].Rows, grads[0].Cols))
	sparseFrac := frac * float64(compress.ElemBytes) / float64(compress.ElemBytes+compress.IndexBytes)

	t := &table{
		title: fmt.Sprintf("Ablation — compressor family on real %dx%d gradients (error feedback on, budget = PowerSGD rank 4)", h, grads[0].Cols),
		cols:  []string{"compressor", "achieved ratio", "mean rel. error"},
		notes: []string{"paper §8: low-rank chosen over top-k (index overhead, gather build-up) and quantization (fixed ratio)"},
	}
	cands := []compress.Compressor{
		compress.NewPowerSGD(4, o.Seed),
		compress.NewTopK(sparseFrac),
		compress.NewRandomK(sparseFrac, o.Seed),
		compress.NewUniform8Bit(),
		compress.NewTernGrad(o.Seed),
		compress.NewSignSGD(),
	}
	for _, cand := range cands {
		inst := compress.NewInstrumented(cand)
		ef := compress.NewErrorFeedback(inst)
		for _, g := range grads {
			ef.CompressWithFeedback(g)
		}
		t.add(inst.Name(), fmt.Sprintf("%.1f×", inst.AchievedRatio()), f3(inst.MeanRelError()))
	}
	return t, nil
}

// AblateSchedules compares pipeline schedules analytically and
// structurally for the paper's configuration (PP4, 16 micro-batches):
// bubble fraction, peak in-flight activations, and inter-stage transfer
// count — the trade-offs CB interacts with.
func AblateSchedules(o Options) (Result, error) {
	t := &table{
		title: "Ablation — pipeline schedules (PP4, 16 micro-batches)",
		cols:  []string{"schedule", "bubble fraction", "peak in-flight (stage 0)", "p2p transfers/iter"},
		notes: []string{"1F1B keeps GPipe's bubble and traffic; its gain is the peak activation stash (§2.1)"},
	}
	p, m := 4, 16
	oneF, err := pipeline.OneFOneB(p, m)
	if err != nil {
		return nil, err
	}
	gp, err := pipeline.GPipe(p, m)
	if err != nil {
		return nil, err
	}
	t.add("GPipe", f3(pipeline.BubbleFraction1F1B(p, m)),
		fmt.Sprintf("%d", gp.PeakInFlight(0)),
		fmt.Sprintf("%d", pipeline.CommVolumePerIteration(p, m)))
	t.add("1F1B", f3(pipeline.BubbleFraction1F1B(p, m)),
		fmt.Sprintf("%d", oneF.PeakInFlight(0)),
		fmt.Sprintf("%d", pipeline.CommVolumePerIteration(p, m)))
	return t, nil
}
