package train

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
)

// trainPair runs the same configuration on the serial sync path and the
// collective runtime and returns both trainers after iters iterations,
// asserting the loss trajectories stayed exactly equal.
func trainPair(t *testing.T, cfg Config, c *data.Corpus, iters int) (serial, coll *Trainer) {
	t.Helper()
	sCfg := cfg
	sCfg.Engine = EngineReference
	cCfg := cfg

	serial, err := New(sCfg, c)
	if err != nil {
		t.Fatal(err)
	}
	coll, err = New(cCfg, c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coll.Close)
	if coll.coll == nil {
		t.Fatal("collective runtime not active on default config")
	}
	for i := 0; i < iters; i++ {
		ls, lc := serial.TrainIteration(), coll.TrainIteration()
		if ls != lc {
			t.Fatalf("iteration %d: losses diverged (serial %v vs collective %v)", i, ls, lc)
		}
	}
	return serial, coll
}

// TestCollectiveBitIdenticalOnQuickstartConfig runs the quickstart
// configuration (DefaultConfig + the scaled full Optimus-CC opt) on both
// paths at tolerance zero.
func TestCollectiveBitIdenticalOnQuickstartConfig(t *testing.T) {
	corpus, err := data.Generate(data.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MicroBatch = 32
	opt := core.CBFESC()
	opt.CBRank = 3 // experiments.ScaledOpt's mapping of the paper ranks
	opt.DPRank = 4
	cfg.Opt = opt
	serial, coll := trainPair(t, cfg, corpus, 3)
	assertSameWeights(t, serial, coll, "quickstart")
}

// TestCollectiveEmbVolumeMatchesCostModel asserts the predicted-vs-
// executed contract end to end through the trainer: embedding-sync
// traffic measured by the transport equals the Eq. 15/16 factors times
// the table volume, exactly.
func TestCollectiveEmbVolumeMatchesCostModel(t *testing.T) {
	c := testCorpus(t)
	const iters = 3
	run := func(fuse bool) int64 {
		opt := core.Baseline()
		opt.FuseEmbedding = fuse
		tr, err := New(testConfig(opt), c)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		for i := 0; i < iters; i++ {
			tr.TrainIteration()
		}
		st, ok := tr.CollectiveStats()
		if !ok {
			t.Fatal("no collective stats")
		}
		return st.For(collective.ClassEmb).Bytes
	}
	cfg := testConfig(core.Baseline())
	d := cfg.DPGroups
	emb := cfg.Model.Vocab * cfg.Model.Hidden
	v := int64(emb) * compress.ElemBytes
	ranks := int64(2 * d) // first- and last-stage ranks of every replica

	fused := run(true)
	if want := int64(core.EmbSyncFusedVolumeFactor(d)*float64(v)) * ranks * iters; fused != want {
		t.Fatalf("fused emb traffic %d bytes, Eq. 16 says %d", fused, want)
	}
	baseline := run(false)
	if want := int64(core.EmbSyncVolumeFactor(d)*float64(v)) * ranks * iters; baseline != want {
		t.Fatalf("baseline emb traffic %d bytes, Eq. 15 says %d", baseline, want)
	}
	if fused >= baseline {
		t.Fatal("fused embedding sync did not reduce executed volume")
	}
}

// TestCollectivePPAccounting checks the pipeline-class accounting: the
// uncompressed backward volume is exact, and compressed backpropagation
// strictly reduces it.
func TestCollectivePPAccounting(t *testing.T) {
	c := testCorpus(t)
	const iters = 2
	run := func(opt core.Config) int64 {
		tr, err := New(testConfig(opt), c)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		for i := 0; i < iters; i++ {
			tr.TrainIteration()
		}
		st, _ := tr.CollectiveStats()
		return st.For(collective.ClassPP).Bytes
	}
	cfg := testConfig(core.Baseline())
	// One dense forward AND one dense backward send per boundary per
	// micro-batch per replica (forward activations used to go unbooked —
	// the wire-accounting bug this PR fixes).
	act := int64(cfg.MicroBatch*cfg.Model.Hidden) * compress.ElemBytes
	transfers := 2 * int64(cfg.DPGroups*cfg.MicroBatches*(cfg.Stages-1)*iters)
	dense := run(core.Baseline())
	if want := act * transfers; dense != want {
		t.Fatalf("dense PP traffic %d bytes, want %d (fwd+bwd)", dense, want)
	}
	if cb := run(scaledCB()); cb >= dense {
		t.Fatalf("compressed backprop PP traffic %d not below dense %d", cb, dense)
	}
}

// TestCollectiveSyncSteadyStateZeroAllocs pins the last acceptance
// criterion at the trainer level: after warm-up, a full blocking
// DP+embedding sync pass over the collective runtime — every stage's
// buckets issued at the join, then drained — allocates nothing.
func TestCollectiveSyncSteadyStateZeroAllocs(t *testing.T) {
	opt := core.CBFESC()
	opt.CBRank = 2
	opt.DPRank = 2
	cfg := testConfig(opt)
	cfg.DPSync = DPSyncBlocking
	tr, err := New(cfg, testCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Train(3, nil) // warm every workspace, residual, and payload buffer
	if n := testing.AllocsPerRun(10, func() {
		tr.syncDataParallel()
		tr.syncEmbedding()
	}); n != 0 {
		t.Fatalf("steady-state collective sync allocates (%v allocs/op)", n)
	}
}

// TestOverlappedSyncSteadyStateZeroAllocs pins the same contract on the
// overlapped path: arming the arrival counters, issuing every stage's
// buckets through the async handles, draining them, and the embedding
// phase — the exact per-iteration sync work — allocates nothing once
// warm.
func TestOverlappedSyncSteadyStateZeroAllocs(t *testing.T) {
	opt := core.CBFESC()
	opt.CBRank = 2
	opt.DPRank = 2
	cfg := testConfig(opt)
	tr, err := New(cfg, testCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Train(3, nil) // warm every workspace, residual, and payload buffer
	pass := func() {
		tr.coll.armArrivals()
		for s := cfg.Stages - 1; s >= 0; s-- {
			for d := 0; d < cfg.DPGroups; d++ {
				tr.dpStageReady(s)
			}
		}
		tr.syncDataParallel()
		tr.syncEmbedding()
	}
	pass()
	if n := testing.AllocsPerRun(10, pass); n != 0 {
		t.Fatalf("steady-state overlapped sync allocates (%v allocs/op)", n)
	}
}
