package repro

// One benchmark per paper artifact (every table and figure of §3/§9),
// plus micro-benchmarks of the substrates. The experiment benchmarks run
// the same code paths as cmd/optcc-bench and report the headline numbers
// as custom benchmark metrics; run them with -benchtime=1x to regenerate
// each artifact exactly once:
//
//	go test -bench=. -benchtime=1x -benchmem
import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/train"
)

// benchOptions keeps the full -bench=. sweep tractable while still
// training for real; EXPERIMENTS.md uses experiments.DefaultOptions via
// cmd/optcc-bench.
func benchOptions() experiments.Options {
	return experiments.Options{Iterations: 60, EvalWindows: 200, TaskExamples: 60, Seed: 7}
}

func runExperiment(b *testing.B, name string) experiments.Result {
	b.Helper()
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Registry[name](benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkFig3Motivation regenerates the motivational breakdown +
// naive-compression quality study (Fig. 3).
func BenchmarkFig3Motivation(b *testing.B) {
	res := runExperiment(b, "fig3").(*experiments.Fig3Result)
	base := res.Timing.Rows[0]
	full := res.Timing.Rows[3]
	b.ReportMetric(base.Days, "baseline-days")
	b.ReportMetric(full.Days, "optcc-days")
	b.ReportMetric(res.Quality[2].PPL/res.Quality[0].PPL, "naiveCB-ppl-ratio")
}

// BenchmarkTable2Speedup regenerates Table 2 (both models, all technique
// combinations).
func BenchmarkTable2Speedup(b *testing.B) {
	res := runExperiment(b, "table2").(*experiments.Table2Result)
	names := []string{"gpt8.3b-speedup-%", "gpt2.5b-speedup-%"}
	for i, t := range res.Timing {
		last := t.Rows[len(t.Rows)-1]
		if i < len(names) {
			b.ReportMetric(last.Speedup*100, names[i])
		}
	}
}

// BenchmarkFig9Curves regenerates the perplexity-over-training curves.
func BenchmarkFig9Curves(b *testing.B) {
	res := runExperiment(b, "fig9").(*experiments.CurveResult)
	b.ReportMetric(float64(len(res.Iterations)), "curve-points")
}

// BenchmarkFig10Breakdown regenerates the ablation breakdown (Fig. 10).
func BenchmarkFig10Breakdown(b *testing.B) {
	runExperiment(b, "fig10")
}

// BenchmarkTable3ZeroShot regenerates the zero-shot probe-task grid.
func BenchmarkTable3ZeroShot(b *testing.B) {
	res := runExperiment(b, "table3").(*experiments.AccuracyResult)
	b.ReportMetric(float64(len(res.Tasks)), "tasks")
}

// BenchmarkTable4LEP regenerates the lazy-error-propagation ablation.
func BenchmarkTable4LEP(b *testing.B) {
	runExperiment(b, "table4")
}

// BenchmarkFig11Cosine regenerates the Eq. 14 condition measurements.
func BenchmarkFig11Cosine(b *testing.B) {
	res := runExperiment(b, "fig11").(*experiments.Fig11Result)
	b.ReportMetric(res.CosineAbs, "mean-abs-cosine")
}

// BenchmarkFig12Memory regenerates the memory-overhead accounting.
func BenchmarkFig12Memory(b *testing.B) {
	runExperiment(b, "fig12")
}

// BenchmarkFig13Tradeoff regenerates the SC-vs-rank trade-off study.
func BenchmarkFig13Tradeoff(b *testing.B) {
	res := runExperiment(b, "fig13").(*experiments.Fig13Result)
	b.ReportMetric(res.StageSweep[3].Speedup*100, "sc75-speedup-%")
}

// BenchmarkFig14Sensitivity regenerates the TP/PP sensitivity study.
func BenchmarkFig14Sensitivity(b *testing.B) {
	runExperiment(b, "fig14")
}

// BenchmarkFig15Throughput regenerates the compression-throughput study
// with real Go measurements.
func BenchmarkFig15Throughput(b *testing.B) {
	runExperiment(b, "fig15")
}

// BenchmarkFig16Scalability regenerates the 2.5B→175B scalability study.
func BenchmarkFig16Scalability(b *testing.B) {
	runExperiment(b, "fig16")
}

// BenchmarkFusedEmbeddingCost regenerates the Eq. 15/16 cost table.
func BenchmarkFusedEmbeddingCost(b *testing.B) {
	runExperiment(b, "emb")
}

// BenchmarkEpilogueOverlap regenerates the Fig. 6 epilogue analysis.
func BenchmarkEpilogueOverlap(b *testing.B) {
	runExperiment(b, "epilogue")
}

// BenchmarkAblateLEPGrid regenerates the LEP × epilogue-only quality grid.
func BenchmarkAblateLEPGrid(b *testing.B) {
	runExperiment(b, "ablate-lep")
}

// BenchmarkAblateWarmStart regenerates the PowerSGD warm-start ablation.
func BenchmarkAblateWarmStart(b *testing.B) {
	runExperiment(b, "ablate-warmstart")
}

// BenchmarkAblateCompressor regenerates the compressor-family comparison.
func BenchmarkAblateCompressor(b *testing.B) {
	runExperiment(b, "ablate-compressor")
}

// BenchmarkAblateSchedules regenerates the schedule comparison.
func BenchmarkAblateSchedules(b *testing.B) {
	runExperiment(b, "ablate-schedules")
}

// ---- substrate micro-benchmarks ----
//
// All compression benchmarks run with -benchmem semantics in mind: the
// pooled-workspace engine makes every steady-state path report
// 0 allocs/op, which is the refactor's headline property.

func benchMatrix(n, m int) *tensor.Matrix {
	return tensor.RandN(rand.New(rand.NewSource(1)), n, m, 1)
}

// BenchmarkPowerSGDCompressRank16 measures the paper's CB operating point
// on a scaled inter-stage gradient shape.
func BenchmarkPowerSGDCompressRank16(b *testing.B) {
	g := benchMatrix(1024, 3072)
	c := compress.NewPowerSGD(16, 1)
	c.Compress(g) // warm start
	b.SetBytes(g.SizeBytes(compress.ElemBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compress(g)
	}
}

// BenchmarkPowerSGDDecompressRank16 measures reconstruction cost through
// the allocating Decompress path (kept as the allocator-bound contrast to
// the Into variant below).
func BenchmarkPowerSGDDecompressRank16(b *testing.B) {
	g := benchMatrix(1024, 3072)
	c := compress.NewPowerSGD(16, 1)
	pl := c.Compress(g)
	b.SetBytes(g.SizeBytes(compress.ElemBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Decompress(pl)
	}
}

// BenchmarkPowerSGDDecompressIntoRank16 measures reconstruction through
// the zero-allocation DecompressInto path the trainer uses.
func BenchmarkPowerSGDDecompressIntoRank16(b *testing.B) {
	g := benchMatrix(1024, 3072)
	c := compress.NewPowerSGD(16, 1)
	pl := c.Compress(g)
	dst := tensor.New(1024, 3072)
	b.SetBytes(g.SizeBytes(compress.ElemBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DecompressInto(dst, pl)
	}
}

// BenchmarkPowerSGDCompressRank128 shows the falls-with-rank trend.
func BenchmarkPowerSGDCompressRank128(b *testing.B) {
	g := benchMatrix(1024, 3072)
	c := compress.NewPowerSGD(128, 1)
	c.Compress(g)
	b.SetBytes(g.SizeBytes(compress.ElemBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compress(g)
	}
}

// BenchmarkErrorFeedbackRoundTrip measures the full DP-compression unit of
// work (feedback add + compress + reconstruct + residual update), the
// inner loop of syncDataParallel.
func BenchmarkErrorFeedbackRoundTrip(b *testing.B) {
	g := benchMatrix(256, 256)
	ef := compress.NewErrorFeedback(compress.NewPowerSGD(4, 1))
	ef.CompressWithFeedback(g)
	ef.CompressWithFeedback(g) // second call warms the residual-path scratch
	b.SetBytes(g.SizeBytes(compress.ElemBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ef.CompressWithFeedback(g)
	}
}

// BenchmarkTopKCompress measures the sparse alternative.
func BenchmarkTopKCompress(b *testing.B) {
	g := benchMatrix(512, 512)
	c := compress.NewTopK(0.1)
	c.Compress(g) // size the selection scratch
	b.SetBytes(g.SizeBytes(compress.ElemBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compress(g)
	}
}

// BenchmarkTernGradCompress measures the quantization alternative.
func BenchmarkTernGradCompress(b *testing.B) {
	g := benchMatrix(512, 512)
	c := compress.NewTernGrad(1)
	c.Compress(g)
	b.SetBytes(g.SizeBytes(compress.ElemBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compress(g)
	}
}

// BenchmarkMatMul measures the tensor substrate's core kernel at a square
// shape (internal/tensor's BenchmarkMatMulKernels covers the shapes the
// trainer runs, per kernel, in ns per multiply-add).
func BenchmarkMatMul(b *testing.B) {
	x := benchMatrix(256, 256)
	y := benchMatrix(256, 256)
	dst := tensor.New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(dst, x, y)
	}
}

// BenchmarkMatMulPowerSGDShape measures the dominant compression matmul:
// a wide gradient times a skinny warm-start sketch.
func BenchmarkMatMulPowerSGDShape(b *testing.B) {
	x := benchMatrix(1024, 3072)
	y := benchMatrix(3072, 16)
	dst := tensor.New(1024, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(dst, x, y)
	}
}

// BenchmarkGramSchmidt measures the orthogonalization phase §9.6 calls the
// compression bottleneck.
func BenchmarkGramSchmidt(b *testing.B) {
	src := benchMatrix(2048, 16)
	m := src.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CopyFrom(src)
		tensor.GramSchmidt(m)
	}
}

// BenchmarkSimulateIteration measures one full task-graph solve of the
// paper cluster.
func BenchmarkSimulateIteration(b *testing.B) {
	sc := sim.PaperScenario(cluster.GPT25B, core.CBFESC())
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainIteration measures one real training iteration of the
// stand-in model under full Optimus-CC.
func BenchmarkTrainIteration(b *testing.B) {
	corpus, err := data.Generate(data.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := train.DefaultConfig()
	cfg.MicroBatch = 32
	cfg.Opt = experiments.ScaledOpt(core.CBFESC())
	tr, err := train.New(cfg, corpus)
	if err != nil {
		b.Fatal(err)
	}
	tr.TrainIteration() // warm the pooled workspaces
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TrainIteration()
	}
}
