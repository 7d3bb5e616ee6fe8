package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"time"
)

// TimingRow is one configuration's simulated outcome.
type TimingRow struct {
	Name         string
	IterationSec float64
	Days         float64
	Speedup      float64 // vs the first (baseline) row
	Exposed      map[string]float64
}

// TimingResult is a set of simulated configurations for one model.
type TimingResult struct {
	Model string
	Rows  []TimingRow
	Notes []string
}

// Render implements Result.
func (r *TimingResult) Render() string {
	t := &table{
		title: r.Model,
		cols:  []string{"config", "iter(s)", "days", "speedup", "fwd", "bwd", "interstage", "dp", "emb"},
		notes: r.Notes,
	}
	for _, row := range r.Rows {
		t.add(row.Name, f3(row.IterationSec), f2(row.Days), pct(row.Speedup),
			f3(row.Exposed[sim.LabelFwd]), f3(row.Exposed[sim.LabelBwd]),
			f3(row.Exposed[sim.LabelInterStage]), f3(row.Exposed[sim.LabelDP]),
			f3(row.Exposed[sim.LabelEmb]))
	}
	return t.Render()
}

func (o Options) timingRows(spec cluster.GPTSpec, cfgs []core.Config, iterations int) (*TimingResult, error) {
	res := &TimingResult{Model: spec.Name}
	var base float64
	for i, cfg := range cfgs {
		eff, err := o.efficiency()
		if err != nil {
			return nil, err
		}
		sc := sim.PaperScenario(spec, cfg)
		sc.Topo.Efficiency = eff
		sc.Iterations = iterations
		r, err := sim.Simulate(sc)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = r.IterationSec
		}
		res.Rows = append(res.Rows, TimingRow{
			Name:         cfg.Name(),
			IterationSec: r.IterationSec,
			Days:         r.Days,
			Speedup:      base/r.IterationSec - 1,
			Exposed:      r.Exposed,
		})
	}
	return res, nil
}

// Fig3Result pairs the motivational breakdown with measured quality.
type Fig3Result struct {
	Timing  *TimingResult
	Quality []QualityRow
}

// Render implements Result.
func (r *Fig3Result) Render() string {
	out := r.Timing.Render()
	t := &table{title: "Fig. 3 quality (real scaled training)", cols: []string{"config", "val PPL", "ΔPPL vs baseline"}}
	base := r.Quality[0].PPL
	for _, q := range r.Quality {
		t.add(q.Name, f3(q.PPL), fmt.Sprintf("%+.1f%%", (q.PPL/base-1)*100))
	}
	return out + t.Render()
}

// Fig3Motivation regenerates the motivational experiment: the Fig. 3
// breakdown bars (GPT-2.5B, 125K iterations) plus the PPL consequences of
// naive compression measured on the real scaled model.
func Fig3Motivation(o Options) (*Fig3Result, error) {
	cfgs := []core.Config{core.Baseline(), core.NaiveDP(), core.NaiveCB(), core.CBFESC()}
	topk := core.CBFESC()
	topk.CBAlg = core.CBTopK
	cfgs = append(cfgs, topk)

	timing, err := o.timingRows(cluster.GPT25B, cfgs, 125000)
	if err != nil {
		return nil, err
	}
	timing.Model = "Fig. 3 — GPT-2.5B, 125K iterations (paper: baseline 8.00 days → Opt-CC 6.97 days)"

	var quality []QualityRow
	for _, cfg := range cfgs {
		_, ppl, err := o.trainAndEval(cfg)
		if err != nil {
			return nil, err
		}
		quality = append(quality, QualityRow{Name: cfg.Name(), PPL: ppl})
	}
	return &Fig3Result{Timing: timing, Quality: quality}, nil
}

// Table2Result combines simulated time and measured quality for both
// models, the reproduction of Table 2.
type Table2Result struct {
	Timing  []*TimingResult
	Quality []QualityRow
}

// Render implements Result.
func (r *Table2Result) Render() string {
	var out string
	for _, t := range r.Timing {
		out += t.Render()
	}
	t := &table{
		title: "Table 2 quality (real scaled training; paper: CB/CB+FE match baseline PPL, CB+FE+SC slightly above)",
		cols:  []string{"config", "val PPL", "ΔPPL vs baseline"},
	}
	base := r.Quality[0].PPL
	for _, q := range r.Quality {
		t.add(q.Name, f3(q.PPL), fmt.Sprintf("%+.1f%%", (q.PPL/base-1)*100))
	}
	return out + t.Render()
}

// Table2 regenerates Table 2: 230K-iteration training time and speedup for
// Baseline/CB/CB+FE/CB+FE+SC on GPT-8.3B and GPT-2.5B, plus validation
// perplexity from real scaled training.
func Table2(o Options) (*Table2Result, error) {
	cfgs := []core.Config{core.Baseline(), core.CB(), core.CBFE(), core.CBFESC()}
	res := &Table2Result{}
	for _, spec := range []cluster.GPTSpec{cluster.GPT83B, cluster.GPT25B} {
		t, err := o.timingRows(spec, cfgs, 230000)
		if err != nil {
			return nil, err
		}
		t.Model = "Table 2 — " + spec.Name + " (paper: 37.27→34.83→32.84→25.72 days for 8.3B; 14.72→13.63→12.79→12.55 for 2.5B)"
		res.Timing = append(res.Timing, t)
	}
	for _, cfg := range cfgs {
		_, ppl, err := o.trainAndEval(cfg)
		if err != nil {
			return nil, err
		}
		res.Quality = append(res.Quality, QualityRow{Name: cfg.Name(), PPL: ppl})
	}
	return res, nil
}

// Fig10Breakdown regenerates the ablation breakdown bars for both models.
func Fig10Breakdown(o Options) (Result, error) {
	cfgs := []core.Config{core.Baseline(), core.CB(), core.CBFE(), core.CBFESC()}
	var out multiResult
	for _, spec := range []cluster.GPTSpec{cluster.GPT83B, cluster.GPT25B} {
		t, err := o.timingRows(spec, cfgs, 230000)
		if err != nil {
			return nil, err
		}
		t.Model = "Fig. 10 — " + spec.Name + " exposed-time breakdown (CPI-stack method of §3)"
		t.Notes = append(t.Notes, "paper: CB removes 78.57% of backward inter-stage comm; FE cuts EMB ≈40%; all applied cut total comm 63.29% (8.3B)")
		out = append(out, t)
	}
	return out, nil
}

// multiResult concatenates several results.
type multiResult []Result

// Render implements Result.
func (m multiResult) Render() string {
	var s string
	for _, r := range m {
		s += r.Render()
	}
	return s
}

// Fig13Point is one trade-off point: speedup (simulated) and PPL (real).
type Fig13Point struct {
	Label   string
	Speedup float64
	PPL     float64
}

// Fig13Result holds the selective-stage sweep and the rank sweep.
type Fig13Result struct {
	StageSweep []Fig13Point
	RankSweep  []Fig13Point
}

// Render implements Result.
func (r *Fig13Result) Render() string {
	t := &table{
		title: "Fig. 13 — selective stage compression vs rank adjustment (GPT-2.5B)",
		cols:  []string{"knob", "setting", "speedup(sim)", "val PPL(real)"},
		notes: []string{"paper: SC gives a smooth trade-off; rank tuning is non-linear and rank 512 hurts both speed and PPL"},
	}
	for _, p := range r.StageSweep {
		t.add("stages", p.Label, pct(p.Speedup), f3(p.PPL))
	}
	for _, p := range r.RankSweep {
		t.add("rank", p.Label, pct(p.Speedup), f3(p.PPL))
	}
	return t.Render()
}

// Fig13Tradeoff regenerates Fig. 13: the stage-fraction sweep (at fixed
// rank) against the rank sweep (at all stages compressed). Speedups come
// from the simulator at paper scale; perplexities from real scaled
// training, with ranks mapped proportionally.
func Fig13Tradeoff(o Options) (*Fig13Result, error) {
	base, err := o.simulate(cluster.GPT25B, core.CBFE())
	if err != nil {
		return nil, err
	}
	res := &Fig13Result{}

	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		cfg := core.CBFE()
		cfg.SelectiveStageFraction = frac
		cfg.DPRank = 128
		r, err := o.simulate(cluster.GPT25B, cfg)
		if err != nil {
			return nil, err
		}
		q := core.CBFE()
		q.SelectiveStageFraction = frac
		q.DPRank = 128 // rescaled by ScaledOpt
		_, ppl, err := o.trainAndEval(q)
		if err != nil {
			return nil, err
		}
		res.StageSweep = append(res.StageSweep, Fig13Point{
			Label:   fmt.Sprintf("%.0f%%", frac*100),
			Speedup: base.IterationSec/r.IterationSec - 1,
			PPL:     ppl,
		})
	}

	// Rank sweep at 100% stages: paper ranks {4, 32, 128, 512} map onto
	// scaled ranks {1, 2, 4, 16} for the 48×48 layer gradients.
	paperRanks := []int{4, 32, 128, 512}
	scaledRanks := []int{1, 2, 4, 16}
	for i, pr := range paperRanks {
		cfg := core.CBFE()
		cfg.SelectiveStageFraction = 1
		cfg.DPRank = pr
		r, err := o.simulate(cluster.GPT25B, cfg)
		if err != nil {
			return nil, err
		}
		q := o.trainConfig(core.CBFE())
		q.Opt.SelectiveStageFraction = 1
		q.Opt.DPRank = scaledRanks[i]
		c, err := Corpus()
		if err != nil {
			return nil, err
		}
		tr, err := trainNew(q, c)
		if err != nil {
			return nil, err
		}
		tr.Train(o.Iterations, nil)
		res.RankSweep = append(res.RankSweep, Fig13Point{
			Label:   fmt.Sprintf("%d", pr),
			Speedup: base.IterationSec/r.IterationSec - 1,
			PPL:     tr.ValidationPerplexity(o.EvalWindows),
		})
	}
	return res, nil
}

// Fig14Sensitivity regenerates the tensor/pipeline configuration
// sensitivity study on GPT-9.2B with DP fixed to 4.
func Fig14Sensitivity(o Options) (Result, error) {
	eff, err := o.efficiency()
	if err != nil {
		return nil, err
	}
	t := &table{
		title: "Fig. 14 — GPT-9.2B (80 layers) parallel-configuration sensitivity, DP4 fixed",
		cols:  []string{"mapping", "baseline iter(s)", "CB", "CB+FE", "CB+FE+SC"},
		notes: []string{"paper: ≥19.2% total speedup everywhere; CB gains grow with PP ways, SC gains grow as PP shrinks"},
	}
	for _, m := range []cluster.Mapping{
		{TP: 8, DP: 4, PP: 4},
		{TP: 4, DP: 4, PP: 8},
		{TP: 2, DP: 4, PP: 16},
	} {
		var cells []string
		var base float64
		for i, cfg := range []core.Config{core.Baseline(), core.CB(), core.CBFE(), core.CBFESC()} {
			sc := sim.PaperScenario(cluster.GPT92B, cfg)
			sc.Map = m
			sc.Topo.Efficiency = eff
			r, err := sim.Simulate(sc)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				base = r.IterationSec
				cells = append(cells, f3(r.IterationSec))
			} else {
				cells = append(cells, pct(base/r.IterationSec-1))
			}
		}
		t.add(append([]string{m.String()}, cells...)...)
	}
	return t, nil
}

// Fig15Throughput measures real PowerSGD compression/decompression
// throughput in this Go implementation on the paper's tensor shapes, and
// reports the GPU-side model's predictions next to the paper's headline
// numbers. The measured matrices have the models' hidden widths and a
// token dimension of 1024 rows at DefaultOptions, scaled with
// o.Iterations like the training length of the quality experiments, but
// never below the largest rank, so every rank runs in full.
func Fig15Throughput(o Options) (Result, error) {
	t := &table{
		title: "Fig. 15 — PowerSGD inter-stage compression throughput",
		cols:  []string{"model", "rank", "Go compress (Gb/s)", "Go decompress (Gb/s)", "GPU-model compress (Gb/s)", "GPU-model decompress (Gb/s)"},
		notes: []string{
			"paper (A100): 787 Gb/s compress, 68 Tb/s decompress at rank 16 on GPT-8.3B",
			"Go CPU columns verify the falls-with-rank trend on real code; the GPU-model columns",
			"reproduce the paper's absolute scale, the rises-with-model-size trend (kernel setup",
			"amortization), and the decompress ≫ compress gap (orthogonalization dominates).",
		},
	}
	cost := core.DefaultCompressionCostModel()
	shapes := []struct {
		name string
		spec cluster.GPTSpec
	}{{"GPT-8.3B", cluster.GPT83B}, {"GPT-175B", cluster.GPT175B}}
	ranks := []int{4, 16, 64}
	n := max(ranks[len(ranks)-1], 8*128*o.Iterations/DefaultOptions().Iterations)
	for _, sh := range shapes {
		m := sh.spec.Hidden
		for _, rank := range ranks {
			comp, dec := measureThroughput(n, m, rank)
			gComp := cost.CompressThroughputBps(8*1024, m, rank, 2)
			gDec := cost.DecompressThroughputBps(8*1024, m, rank, 2)
			t.add(sh.name, fmt.Sprintf("%d", rank),
				f2(comp/1e9), f2(dec/1e9), f2(gComp/1e9), f2(gDec/1e9))
		}
	}
	return t, nil
}

// measureThroughput times real Go PowerSGD on an n×m matrix, through the
// pooled zero-allocation API so the numbers reflect the kernels rather
// than the Go allocator.
func measureThroughput(n, m, rank int) (compressBps, decompressBps float64) {
	c := compress.NewPowerSGD(rank, 1)
	g := tensor.RandN(newRand(42), n, m, 1)
	dst := tensor.New(n, m)
	bits := float64(int64(n)*int64(m)*compress.ElemBytes) * 8

	pl := c.Compress(g) // warm the Q cache and workspaces
	const reps = 3
	start := nowSec()
	for i := 0; i < reps; i++ {
		pl = c.Compress(g)
	}
	compressBps = bits * reps / (nowSec() - start)
	start = nowSec()
	for i := 0; i < reps; i++ {
		c.DecompressInto(dst, pl)
	}
	decompressBps = bits * reps / (nowSec() - start)
	return compressBps, decompressBps
}

// Fig16Scalability regenerates the scalability study: model sizes 2.5B to
// 175B with TP8/DP4 fixed and PP (and nodes) growing.
func Fig16Scalability(o Options) (Result, error) {
	eff, err := o.efficiency()
	if err != nil {
		return nil, err
	}
	t := &table{
		title: "Fig. 16 — scalability (TP8/DP4 fixed, PP and nodes grow with the model)",
		cols:  []string{"model", "GPUs", "baseline iter(s)", "Opt-CC iter(s)", "speedup"},
		notes: []string{"paper: Optimus-CC's speedup persists to GPT-175B"},
	}
	cases := []struct {
		spec  cluster.GPTSpec
		pp    int
		nodes int
	}{
		{cluster.GPT25B, 4, 16},
		{cluster.GPT83B, 4, 16},
		{cluster.GPT39B, 8, 32},
		{cluster.GPT175B, 16, 64},
	}
	for _, c := range cases {
		sc := sim.PaperScenario(c.spec, core.Baseline())
		sc.Map = cluster.Mapping{TP: 8, DP: 4, PP: c.pp}
		sc.Topo.Nodes = c.nodes
		sc.Topo.Efficiency = eff
		rb, err := sim.Simulate(sc)
		if err != nil {
			return nil, err
		}
		full := sc
		full.Cfg = core.CBFESC()
		rf, err := sim.Simulate(full)
		if err != nil {
			return nil, err
		}
		t.add(c.spec.Name, fmt.Sprintf("%d", sc.Map.Ways()),
			f3(rb.IterationSec), f3(rf.IterationSec), pct(rb.IterationSec/rf.IterationSec-1))
	}
	return t, nil
}

// EmbCost regenerates the §6 analytic model: baseline vs fused embedding
// synchronization cost versus the number of data-parallel groups.
func EmbCost(o Options) (Result, error) {
	t := &table{
		title: "Eq. 15/16 — embedding synchronization cost vs data-parallel ways",
		cols:  []string{"D", "baseline V-factor", "fused V-factor", "improvement", "simnet baseline(ms)", "simnet fused(ms)"},
		notes: []string{"paper: improvement is 42.9% at D=4 and approaches 50%"},
	}
	link := simnet.Link{Name: "ib", BandwidthBps: 200e9, LatencySec: 2e-6}
	embBytes := cluster.GPT83B.EmbeddingParams() / 8 * 2
	for _, d := range []int{2, 4, 8, 16, 32} {
		t.add(fmt.Sprintf("%d", d),
			f3(core.EmbSyncVolumeFactor(d)),
			f3(core.EmbSyncFusedVolumeFactor(d)),
			pct(core.EmbSyncImprovement(d)),
			f3(link.EmbSyncBaselineTime(embBytes, d)*1000),
			f3(link.EmbSyncFusedTime(embBytes, d)*1000))
	}
	return t, nil
}

// EpilogueOverlap quantifies Fig. 6: how many backward sends are in the
// epilogue, and how much of the inter-stage exposure epilogue-only
// compression removes relative to compressing everything.
func EpilogueOverlap(o Options) (Result, error) {
	sched, err := pipeline.OneFOneB(4, 16)
	if err != nil {
		return nil, err
	}
	t := &table{
		title: "Fig. 6 — epilogue structure (PP4, 16 micro-batches) and overlap",
		cols:  []string{"stage", "epilogue backward sends", "of total"},
	}
	for s := 0; s < 4; s++ {
		n := sched.EpilogueBackwardCount(s)
		t.add(fmt.Sprintf("%d", s), fmt.Sprintf("%d", n), fmt.Sprintf("%.0f%%", float64(n)/16*100))
	}
	base, err := o.simulate(cluster.GPT25B, core.Baseline())
	if err != nil {
		return nil, err
	}
	epi, err := o.simulate(cluster.GPT25B, core.CB())
	if err != nil {
		return nil, err
	}
	all := core.CB()
	all.EpilogueOnly = false
	rAll, err := o.simulate(cluster.GPT25B, all)
	if err != nil {
		return nil, err
	}
	t.notes = append(t.notes,
		fmt.Sprintf("epilogue-only speedup %+.2f%% vs compress-everything %+.2f%% — §5.2's claim that the epilogue carries the benefit",
			(base.IterationSec/epi.IterationSec-1)*100, (base.IterationSec/rAll.IterationSec-1)*100))
	return t, nil
}

func nowSec() float64 { return float64(time.Now().UnixNano()) / 1e9 }
