package train

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// gridConfig builds a DP×PP test configuration with micros micro-batches.
func gridConfig(opt core.Config, dp, pp, micros int) Config {
	cfg := testConfig(opt)
	cfg.DPGroups = dp
	cfg.Stages = pp
	cfg.MicroBatches = micros
	return cfg
}

// executorGrids are the DP×PP shapes the 1F1B executor is validated on:
// the minimal pipeline, a deep pipeline wider in data than in stages, and
// the transpose. micros=2 on the 4-stage grid makes every backward an
// epilogue backward (warmup w = min(p−s−1, m) caps at m), exercising the
// schedule's boundary micro-batches.
var executorGrids = []struct{ dp, pp, micros int }{
	{1, 2, 4},
	{2, 4, 4},
	{4, 2, 4},
	{2, 4, 2}, // m < p−1: the warmup cap / all-epilogue edge
}

// executorOpts are the compression configurations the executor must
// reproduce bit for bit: exact, compressed backprop on every send, and
// epilogue-only compression (§5.2 — scaledCB inherits it from core.CB),
// whose per-micro classification is exactly where an executor driving
// the schedule can drift from the serial loop.
func executorOpts() map[string]core.Config {
	cbFull := scaledCB()
	cbFull.EpilogueOnly = false
	full := core.CBFESC()
	full.CBRank = 2
	full.DPRank = 2
	// Sparse-native CB: every compressed backward send on the executor
	// ships a TopK payload through SendCompressedSparse, so both
	// executor pins (bit-identity vs the serial densified oracle, traffic
	// prediction) cover the sparse p2p path.
	cbTopK := scaledCB()
	cbTopK.CBAlg = core.CBTopK
	cbTopK.EpilogueOnly = false
	return map[string]core.Config{
		"baseline":       core.Baseline(),
		"cb-full":        cbFull,
		"cb-epilogue":    scaledCB(),
		"cbfesc":         full,
		"cb-topk-sparse": cbTopK,
	}
}

// TestPipelineExecutorBitIdentical pins the tentpole acceptance
// criterion: the 1F1B executor — one goroutine per (dp, stage) rank,
// tensors shipped over the collective transport — reproduces the serial
// in-loop reference engine bit for bit (tolerance 0) at every grid and
// compression configuration, including the EpilogueOnly boundary
// micro-batches.
func TestPipelineExecutorBitIdentical(t *testing.T) {
	c := testCorpus(t)
	for name, opt := range executorOpts() {
		for _, g := range executorGrids {
			sCfg := gridConfig(opt, g.dp, g.pp, g.micros)
			sCfg.Engine = EngineReference
			pCfg := gridConfig(opt, g.dp, g.pp, g.micros)

			serial, err := New(sCfg, c)
			if err != nil {
				t.Fatal(err)
			}
			pipe, err := New(pCfg, c)
			if err != nil {
				t.Fatal(err)
			}
			if !pipe.pipelineActive() {
				t.Fatalf("%s dp%d×pp%d: executor not active on default config", name, g.dp, g.pp)
			}
			for i := 0; i < 3; i++ {
				ls, lp := serial.TrainIteration(), pipe.TrainIteration()
				if ls != lp {
					t.Fatalf("%s dp%d×pp%d iteration %d: serial loss %v != executor %v",
						name, g.dp, g.pp, i, ls, lp)
				}
			}
			for dd := range serial.replicas {
				for s := range serial.replicas[dd] {
					ps, pp2 := serial.replicas[dd][s].Params(), pipe.replicas[dd][s].Params()
					for i := range ps {
						if !ps[i].Equal(pp2[i], 0) {
							t.Fatalf("%s dp%d×pp%d: replica %d stage %d param %d differs",
								name, g.dp, g.pp, dd, s, i)
						}
					}
				}
			}
			serial.Close()
			pipe.Close()
		}
	}
}

// probeCBWireBytes returns the wire size of one compressed backward
// payload for cfg's boundary shape, measured on a compressor built from
// the trainer's compiled plan spec through the registry (payload sizes
// are shape-determined, so one probe predicts every send). For low-rank
// configurations it also pins the measured size to core.LowRankWireBytes
// — the closed form the pipeline experiment and the quickstart price
// predictions with.
func probeCBWireBytes(t *testing.T, tr *Trainer) int64 {
	t.Helper()
	probe := tensor.New(tr.cfg.MicroBatch, tr.cfg.Model.Hidden)
	for i := range probe.Data {
		probe.Data[i] = float64(i%13) / 13
	}
	c, err := compress.Build(tr.Plan().CBSpec(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	wire := c.Compress(probe).WireBytes()
	if tr.Plan().CBFamily() == "powersgd" {
		if want := core.LowRankWireBytes(probe.Rows, probe.Cols, tr.cfg.Opt.CBRank, compress.ElemBytes); wire != want {
			t.Fatalf("measured PowerSGD payload %d bytes, closed form says %d", wire, want)
		}
	}
	return wire
}

// TestPipelineExecutorTrafficMatchesPrediction pins the wire-accounting
// acceptance criterion: the pp-class bytes, messages, and steps the
// executor puts on the transport equal the analytic inter-stage
// prediction (forward + backward) exactly — the fwd+bwd reconciliation
// that was impossible while forward activations went unaccounted.
func TestPipelineExecutorTrafficMatchesPrediction(t *testing.T) {
	c := testCorpus(t)
	const iters = 2
	for name, opt := range executorOpts() {
		for _, g := range executorGrids {
			cfg := gridConfig(opt, g.dp, g.pp, g.micros)
			tr, err := New(cfg, c)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < iters; i++ {
				tr.TrainIteration()
			}
			st, ok := tr.CollectiveStats()
			if !ok {
				t.Fatalf("%s dp%d×pp%d: no collective stats", name, g.dp, g.pp)
			}
			exec := st.For(collective.ClassPP)

			dense := int64(cfg.MicroBatch*cfg.Model.Hidden) * compress.ElemBytes
			var cmp int64
			if opt.CompressBackprop {
				cmp = probeCBWireBytes(t, tr)
			}
			pred, err := sim.PredictInterStage(opt, cfg.Stages, cfg.MicroBatches, dense, cmp)
			if err != nil {
				t.Fatal(err)
			}
			scale := int64(cfg.DPGroups * iters)
			if exec.Bytes != pred.Bytes*scale {
				t.Fatalf("%s dp%d×pp%d: executed pp bytes %d, predicted %d",
					name, g.dp, g.pp, exec.Bytes, pred.Bytes*scale)
			}
			if exec.Messages != pred.Messages*scale {
				t.Fatalf("%s dp%d×pp%d: executed pp messages %d, predicted %d",
					name, g.dp, g.pp, exec.Messages, pred.Messages*scale)
			}
			if exec.Steps != pred.Steps*scale {
				t.Fatalf("%s dp%d×pp%d: executed pp steps %d, predicted %d",
					name, g.dp, g.pp, exec.Steps, pred.Steps*scale)
			}
			if want := int64(simnet.InterStageMessages(cfg.Stages, cfg.MicroBatches)) * scale; exec.Messages != want {
				t.Fatalf("%s dp%d×pp%d: executed pp messages %d, simnet says %d",
					name, g.dp, g.pp, exec.Messages, want)
			}
			tr.Close()
		}
	}
}
