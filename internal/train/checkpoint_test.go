package train

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
)

func TestCheckpointRoundTrip(t *testing.T) {
	c := testCorpus(t)
	a, err := New(testConfig(core.Baseline()), c)
	if err != nil {
		t.Fatal(err)
	}
	a.Train(10, nil)
	wantPPL := a.ValidationPerplexity(150)

	blob, err := a.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}

	b, err := New(testConfig(core.Baseline()), c)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadCheckpoint(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if got := b.ValidationPerplexity(150); got != wantPPL {
		t.Fatalf("restored PPL %v != saved %v", got, wantPPL)
	}
	// All replicas must receive the broadcast.
	for s := 0; s < b.cfg.Stages; s++ {
		p0 := b.replicas[0][s].Params()
		p1 := b.replicas[1][s].Params()
		for i := range p0 {
			if !p0[i].Equal(p1[i], 0) {
				t.Fatalf("replica 1 stage %d param %d not broadcast", s, i)
			}
		}
	}
}

func TestCheckpointResumeTrainsOn(t *testing.T) {
	c := testCorpus(t)
	a, _ := New(testConfig(core.Baseline()), c)
	a.Train(20, nil)
	blob, err := a.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(testConfig(core.Baseline()), c)
	if err := b.LoadCheckpoint(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	before := b.ValidationPerplexity(150)
	b.Train(30, nil)
	after := b.ValidationPerplexity(150)
	if after >= before {
		t.Fatalf("resumed training did not improve: %v → %v", before, after)
	}
}

// TestCheckpointResumeBitIdentical pins the v2 regression: version 1
// silently dropped every error-feedback residual (inter-stage lazy error
// propagation AND the per-(stage, group, grad) DP-sync compressor
// state), the PowerSGD warm-start factors, the optimizer momentum, and
// the data-stream position, so a restored compressed run diverged from
// an uninterrupted one. With v2, a trainer restored mid-run must produce
// the exact loss trajectory and weights the uninterrupted run produces.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	c := testCorpus(t)
	full := core.CBFESC()
	full.CBRank = 2
	full.DPRank = 2
	topk := scaledCB()
	topk.CBAlg = core.CBTopK
	for name, opt := range map[string]core.Config{
		"baseline": core.Baseline(), // momentum + sampling-stream state
		"cbfesc":   full,            // every error-feedback residual + warm start
		"cb-topk":  topk,            // sparse compressor (residual-only state)
	} {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(opt)
			a, err := New(cfg, c)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			a.Train(6, nil)
			blob, err := a.CheckpointBytes()
			if err != nil {
				t.Fatal(err)
			}

			b, err := New(cfg, c)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if err := b.LoadCheckpoint(bytes.NewReader(blob)); err != nil {
				t.Fatal(err)
			}
			if b.Iteration() != a.Iteration() {
				t.Fatalf("restored iteration %d, saved %d", b.Iteration(), a.Iteration())
			}
			for i := 0; i < 4; i++ {
				la, lb := a.TrainIteration(), b.TrainIteration()
				if la != lb {
					t.Fatalf("iteration %d after restore: loss %v, uninterrupted %v", i, lb, la)
				}
			}
			for dd := range a.replicas {
				for s := range a.replicas[dd] {
					pa, pb := a.replicas[dd][s].Params(), b.replicas[dd][s].Params()
					for i := range pa {
						if !pa[i].Equal(pb[i], 0) {
							t.Fatalf("replica %d stage %d param %d diverged after restore", dd, s, i)
						}
					}
				}
			}
		})
	}
}

// TestCheckpointRestoreClearsPriorState: loading into a trainer that has
// already trained must not merge the two runs — state the checkpoint
// does not mention (momentum, residuals, warm factors accumulated before
// the load) has to be cleared, or the restored trajectory silently
// diverges from the saved one.
func TestCheckpointRestoreClearsPriorState(t *testing.T) {
	c := testCorpus(t)
	full := core.CBFESC()
	full.CBRank = 2
	full.DPRank = 2
	cfg := testConfig(full)

	a, err := New(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Checkpoint the untrained state: it mentions no velocity, residual,
	// or warm-start entries at all, so everything a pre-trained loader
	// holds must be dropped rather than survive the restore.
	blob0, err := a.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	var aLosses []float64
	a.Train(5, func(_ int, l float64) { aLosses = append(aLosses, l) })

	b, err := New(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Train(3, nil) // dirty every state the checkpoint is silent about
	if err := b.LoadCheckpoint(bytes.NewReader(blob0)); err != nil {
		t.Fatal(err)
	}
	for i, la := range aLosses {
		if lb := b.TrainIteration(); lb != la {
			t.Fatalf("iteration %d after restore-over-trained-state: loss %v, fresh run %v", i, lb, la)
		}
	}
}

// TestCheckpointRejectsConfigMismatch: compressor state in the blob that
// the loading configuration cannot hold must error, on both the
// inter-stage (cb) and the DP-sync (dpc) sections.
func TestCheckpointRejectsConfigMismatch(t *testing.T) {
	c := testCorpus(t)
	full := core.CBFESC()
	full.CBRank = 2
	full.DPRank = 2
	a, err := New(testConfig(full), c)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Train(3, nil) // populate cb and dpc state
	blob, err := a.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}

	// No compressed backprop at all → the cb section must be rejected.
	noCB, err := New(testConfig(core.Baseline()), c)
	if err != nil {
		t.Fatal(err)
	}
	defer noCB.Close()
	if err := noCB.LoadCheckpoint(bytes.NewReader(blob)); err == nil {
		t.Fatal("cb state accepted by a configuration without compressed backprop")
	}

	// CB but no selective stage compression → the dpc section must be
	// rejected instead of silently fabricating unused compressor state.
	cbOnly := core.CBFE()
	cbOnly.CBRank = 2
	noSC, err := New(testConfig(cbOnly), c)
	if err != nil {
		t.Fatal(err)
	}
	defer noSC.Close()
	if err := noSC.LoadCheckpoint(bytes.NewReader(blob)); err == nil {
		t.Fatal("dpc state accepted by a configuration without selective stage compression")
	}
}

// TestCheckpointReadsV1 keeps the v1 weights-only format loadable: a v2
// writer must not orphan old checkpoints.
func TestCheckpointReadsV1(t *testing.T) {
	c := testCorpus(t)
	a, err := New(testConfig(core.Baseline()), c)
	if err != nil {
		t.Fatal(err)
	}
	a.Train(5, nil)

	// Write the legacy format by hand: header version 1, weights only.
	var buf bytes.Buffer
	mats := a.flatParams(0)
	if err := writeU32s(&buf, checkpointMagic, 1, uint32(len(mats))); err != nil {
		t.Fatal(err)
	}
	for _, m := range mats {
		if err := writeMat(&buf, m); err != nil {
			t.Fatal(err)
		}
	}

	b, err := New(testConfig(core.Baseline()), c)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("v1 checkpoint rejected: %v", err)
	}
	if b.Iteration() != 0 {
		t.Fatalf("v1 load set iteration %d, want 0 (weights only)", b.Iteration())
	}
	for i, m := range b.flatParams(0) {
		if !m.Equal(mats[i], 0) {
			t.Fatalf("v1 weights differ at matrix %d", i)
		}
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	c := testCorpus(t)
	a, _ := New(testConfig(core.Baseline()), c)
	blob, err := a.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]byte{}, blob...)
	bad[0] ^= 0xff // break the magic
	if err := a.LoadCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted magic accepted")
	}

	if err := a.LoadCheckpoint(bytes.NewReader(blob[:10])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// TestCheckpointRejectsCorruptV2Sections: a bit-flip in a v2 section's
// shape header must surface as an error, not a runtime panic or an
// attempted multi-gigabyte allocation (readMat validates dimensions).
func TestCheckpointRejectsCorruptV2Sections(t *testing.T) {
	c := testCorpus(t)
	full := core.CBFESC()
	full.CBRank = 2
	full.DPRank = 2
	a, err := New(testConfig(full), c)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Train(3, nil)
	blob, err := a.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	// Locate the first velocity entry's rows field: header (12 bytes) +
	// weights + iter (4) + velocity count (4) + index (4).
	off := 12
	for _, m := range a.flatParams(0) {
		off += 8 + 8*m.NumElements()
	}
	off += 4 + 4 + 4
	for _, bad := range []uint32{0, 0xffffffff, 1 << 24} {
		mut := append([]byte{}, blob...)
		binary.LittleEndian.PutUint32(mut[off:], bad)
		b, err := New(testConfig(full), c)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.LoadCheckpoint(bytes.NewReader(mut)); err == nil {
			t.Fatalf("corrupt velocity shape %#x accepted", bad)
		}
		b.Close()
	}
}

func TestCheckpointRejectsArchitectureMismatch(t *testing.T) {
	c := testCorpus(t)
	a, _ := New(testConfig(core.Baseline()), c)
	blob, err := a.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	other := testConfig(core.Baseline())
	other.Model.Hidden = 24
	b, err := New(other, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadCheckpoint(bytes.NewReader(blob)); err == nil {
		t.Fatal("architecture mismatch accepted")
	}
}
