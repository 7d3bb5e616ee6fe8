package train

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

// goldenRun trains cfg for iters iterations and returns the final loss
// and one FNV-64a digest per stage over the bit patterns of every
// replica's parameters of that stage, in replica and parameter order.
func goldenRun(t *testing.T, cfg Config, iters int) (float64, []uint64) {
	t.Helper()
	tr, err := New(cfg, testCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	var loss float64
	for i := 0; i < iters; i++ {
		loss = tr.TrainIteration()
	}
	digests := make([]uint64, cfg.Stages)
	var buf [8]byte
	for s := range digests {
		h := fnv.New64a()
		for d := range tr.replicas {
			for _, p := range tr.replicas[d][s].Params() {
				for _, v := range p.Data {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
		}
		digests[s] = h.Sum64()
	}
	return loss, digests
}

// TestTrainingBitsGolden pins the bits of two short runs on a DP2×PP2
// grid: 20 iterations of the full Optimus-CC configuration (4-row
// micro-batches, rank-2 backprop and rank-4 DP-sync factors, so the
// small-batch MatMulBTInto form and both skinny widths run) and one
// iteration of core.Baseline(). The tol-0 oracles compare two engines
// that share every kernel, so a kernel bug both share passes them; this
// golden does not. The numbers depend on math.Exp, which on amd64 takes a
// fused path when the CPU has FMA, so they hold only there.
func TestTrainingBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" || !tensor.HostFMA() {
		t.Skip("golden bits are those of amd64 with FMA: math.Exp takes its fused path there, which fixes GELU's and the softmax's bits")
	}
	cases := []struct {
		name    string
		opt     core.Config
		iters   int
		loss    uint64
		digests []uint64
	}{
		{"cbfesc", goldenCBFESC(), 20, 0x3ffeae354a46efbd, []uint64{0x7d61d6a7dd5687cd, 0x78197d5326b2c291}},
		{"baseline", core.Baseline(), 1, 0x40061e8d1048d535, []uint64{0x4b7d17f9ec3178d1, 0x36d2b8c741ab5a45}},
	}
	for _, c := range cases {
		cfg := testConfig(c.opt)
		cfg.DPGroups, cfg.Stages, cfg.MicroBatch = 2, 2, 4
		loss, digests := goldenRun(t, cfg, c.iters)
		if got := math.Float64bits(loss); got != c.loss {
			t.Errorf("%s: final loss %v (bits %#x), golden bits %#x", c.name, loss, got, c.loss)
		}
		for s, d := range digests {
			if s >= len(c.digests) || d != c.digests[s] {
				t.Errorf("%s: stage %d parameter digest %#x, golden %#x", c.name, s, d, c.digests)
			}
		}
	}
}

// goldenCBFESC is core.CBFESC() at ranks the 4×16 boundary and the 16×16
// blocks admit.
func goldenCBFESC() core.Config {
	c := core.CBFESC()
	c.CBRank = 2
	c.DPRank = 4
	return c
}
