package collective

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/tensor"
)

// sparseEFs builds d private error-feedback compressors over family
// (topk|randomk) at the given fraction, seeds 100+i like the PowerSGD
// equivalence test.
func sparseEFs(t *testing.T, family string, d int, fraction float64) []*compress.ErrorFeedback {
	t.Helper()
	efs := make([]*compress.ErrorFeedback, d)
	for i := range efs {
		var inner compress.Compressor
		switch family {
		case "topk":
			inner = compress.NewTopK(fraction)
		case "randomk":
			inner = compress.NewRandomK(fraction, int64(100+i))
		default:
			t.Fatalf("unknown family %q", family)
		}
		efs[i] = compress.NewErrorFeedback(inner)
	}
	return efs
}

// TestSparseAllReduceCompressedMatchesDensified pins the sparse-native
// merge-union reduction bit-identical (tol 0) to the PR-5 densified
// path across the executor grid sizes, both sparse families, several
// rounds (so error-feedback residuals diverge if anything drifts), and
// shapes with uneven chunks. Run under -race this is also the
// happens-before check for the sparse payload ring.
func TestSparseAllReduceCompressedMatchesDensified(t *testing.T) {
	shapes := [][2]int{{1, 5}, {8, 6}, {7, 13}, {16, 16}}
	for _, family := range []string{"topk", "randomk"} {
		for _, d := range []int{1, 2, 3, 4, 8} {
			for _, sh := range shapes {
				rows, cols := sh[0], sh[1]
				rt := flatRuntime(t, d)
				sparseGrp := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))
				denseGrp := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))
				denseGrp.denseReduce = true
				sparseEF := sparseEFs(t, family, d, 0.1)
				denseEF := sparseEFs(t, family, d, 0.1)

				for round := 0; round < 4; round++ {
					grads := randBufs(d, rows, cols, int64(50*d+round))
					sparseBufs := make([]*tensor.Matrix, d)
					denseBufs := make([]*tensor.Matrix, d)
					for i := range grads {
						sparseBufs[i] = grads[i].Clone()
						denseBufs[i] = grads[i].Clone()
					}
					// Groups share ranks, so run one op at a time.
					sparseGrp.AllReduceCompressed(sparseBufs, sparseEF, 1/float64(d))
					denseGrp.AllReduceCompressed(denseBufs, denseEF, 1/float64(d))
					for i := range sparseBufs {
						if !sparseBufs[i].Equal(denseBufs[i], 0) {
							t.Fatalf("%s d=%d shape %v round %d: rank %d sparse != densified", family, d, sh, round, i)
						}
					}
					// Residual trajectories must stay locked too.
					for i := range sparseEF {
						sr, dr := sparseEF[i].Residual(rows, cols), denseEF[i].Residual(rows, cols)
						if (sr == nil) != (dr == nil) || (sr != nil && !sr.Equal(dr, 0)) {
							t.Fatalf("%s d=%d shape %v round %d: rank %d residual diverges", family, d, sh, round, i)
						}
					}
				}
			}
		}
	}
}

// TestSparseAllReduceWireMatchesDensified: the sparse payload ring must
// account exactly the wire volume of the densified path (payload sizes
// are identical; only the reduction representation changes).
func TestSparseAllReduceWireMatchesDensified(t *testing.T) {
	const d, rows, cols = 4, 10, 9
	rt := flatRuntime(t, d)
	sparseGrp := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))
	denseGrp := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))
	denseGrp.denseReduce = true

	sp := sparseGrp.AllReduceCompressedAsync(randBufs(d, rows, cols, 3), sparseEFs(t, "topk", d, 0.05), 1.0/d)
	spWire := sp.WaitBytes()
	dn := denseGrp.AllReduceCompressedAsync(randBufs(d, rows, cols, 3), sparseEFs(t, "topk", d, 0.05), 1.0/d)
	dnWire := dn.WaitBytes()
	if spWire != dnWire || spWire == 0 {
		t.Fatalf("sparse wire %d != densified wire %d", spWire, dnWire)
	}
}

// TestSparseReduceCrossoverAccounting drives ops on both sides of
// SparseReduceCapFraction: a 2%-density op must take the merge-union
// path, a 30%-density op at D=4 (union bound 1.2·n > cap) must fall
// back to the dense scatter-add — and both must still match the
// densified oracle bit for bit.
func TestSparseReduceCrossoverAccounting(t *testing.T) {
	const d, rows, cols = 4, 12, 11
	rt := flatRuntime(t, d)
	grp := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))
	oracle := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))
	oracle.denseReduce = true

	run := func(fraction float64, seed int64) {
		t.Helper()
		grads := randBufs(d, rows, cols, seed)
		oracleBufs := make([]*tensor.Matrix, d)
		for i := range grads {
			oracleBufs[i] = grads[i].Clone()
		}
		grp.AllReduceCompressed(grads, sparseEFs(t, "topk", d, fraction), 1.0/d)
		oracle.AllReduceCompressed(oracleBufs, sparseEFs(t, "topk", d, fraction), 1.0/d)
		for i := range grads {
			if !grads[i].Equal(oracleBufs[i], 0) {
				t.Fatalf("fraction %v: rank %d diverges from densified oracle", fraction, i)
			}
		}
	}

	base := rt.SparseReduceStats()
	run(0.02, 21)
	after := rt.SparseReduceStats()
	if after.SparseOps != base.SparseOps+1 || after.DenseFallbacks != base.DenseFallbacks {
		t.Fatalf("low-density op: stats %+v -> %+v, want one merge-union op", base, after)
	}

	run(0.3, 22) // Σ nnz = 4·0.3·n = 1.2·n > 0.5·n
	final := rt.SparseReduceStats()
	if final.DenseFallbacks != after.DenseFallbacks+1 || final.SparseOps != after.SparseOps {
		t.Fatalf("high-density op: stats %+v -> %+v, want one dense fallback", after, final)
	}

	// The densified-oracle knob must keep ops out of both counters.
	oracleOnly := rt.SparseReduceStats()
	grads := randBufs(d, rows, cols, 23)
	oracle.AllReduceCompressed(grads, sparseEFs(t, "topk", d, 0.02), 1.0/d)
	if got := rt.SparseReduceStats(); got != oracleOnly {
		t.Fatalf("densified op moved sparse counters: %+v -> %+v", oracleOnly, got)
	}
}

// TestSendCompressedSparseMatchesDense: the sparse p2p path must hand
// the receiver the identical pooled dense tensor, account identical
// wire bytes, and evolve the sender's residual identically.
func TestSendCompressedSparseMatchesDense(t *testing.T) {
	for _, family := range []string{"topk", "randomk"} {
		rt := flatRuntime(t, 2)
		efSparse := sparseEFs(t, family, 1, 0.1)[0]
		efDense := sparseEFs(t, family, 1, 0.1)[0]
		for round := 0; round < 3; round++ {
			g := randBufs(1, 9, 7, int64(70+round))[0]

			wireS, ok := rt.SendCompressedSparse(ClassPP, 0, 1, g, efSparse)
			if !ok {
				t.Fatalf("%s: sparse send refused", family)
			}
			gotS, pooledS := rt.Recv(ClassPP, 1, 0)

			wireD, _ := rt.SendCompressed(ClassPP, 0, 1, g, efDense)
			gotD, pooledD := rt.Recv(ClassPP, 1, 0)

			if wireS != wireD {
				t.Fatalf("%s round %d: wire %d != %d", family, round, wireS, wireD)
			}
			if !pooledS || !pooledD {
				t.Fatalf("%s round %d: both paths must hand over pooled tensors", family, round)
			}
			if !gotS.Equal(gotD, 0) {
				t.Fatalf("%s round %d: received tensors diverge", family, round)
			}
			rs, rd := efSparse.Residual(9, 7), efDense.Residual(9, 7)
			if rs == nil || rd == nil || !rs.Equal(rd, 0) {
				t.Fatalf("%s round %d: sender residuals diverge", family, round)
			}
			rt.Pool().Put(gotS)
			rt.Pool().Put(gotD)
		}
	}
	// Non-sparse families refuse and send nothing.
	rt := flatRuntime(t, 2)
	ef := compress.NewErrorFeedback(compress.NewPowerSGD(2, 5))
	if _, ok := rt.SendCompressedSparse(ClassPP, 0, 1, tensor.New(4, 4), ef); ok {
		t.Fatal("powersgd must refuse the sparse p2p path")
	}
}

// TestSparseAllReduceSteadyStateZeroAllocs pins the tentpole's
// allocation contract: a steady-state sparse-native compress + ring +
// merge-union reduce cycle allocates nothing (payload buffers, sparse
// ship copies, merge scratch and op descriptors all recycle) — for both
// sparse families, and on the densified reduction too.
func TestSparseAllReduceSteadyStateZeroAllocs(t *testing.T) {
	const d = 4
	for _, family := range []string{"topk", "randomk"} {
		for _, densified := range []bool{false, true} {
			rt := flatRuntime(t, d)
			grp := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))
			grp.denseReduce = densified
			efs := sparseEFs(t, family, d, 0.05)
			bufs := randBufs(d, 32, 32, 9)
			warm := func() { grp.AllReduceCompressed(bufs, efs, 1.0/d) }
			for i := 0; i < 3; i++ {
				warm() // fill pools, EF residuals, payload capacities
			}
			if n := testing.AllocsPerRun(20, warm); n != 0 {
				t.Fatalf("%s (densified=%v): steady-state sparse all-reduce allocates (%v allocs/op)", family, densified, n)
			}
		}
	}
}
