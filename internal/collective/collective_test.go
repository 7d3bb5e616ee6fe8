package collective

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/tensor"
)

// flatRuntime returns a runtime over d ranks in a d×1 topology.
func flatRuntime(t testing.TB, d int) *Runtime {
	t.Helper()
	topo, err := NewTopology(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(topo, nil, nil)
	t.Cleanup(rt.Close)
	return rt
}

// randBufs returns d deterministic rows×cols matrices.
func randBufs(d, rows, cols int, seed int64) []*tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Matrix, d)
	for i := range out {
		out[i] = tensor.New(rows, cols)
		for j := range out[i].Data {
			out[i].Data[j] = rng.NormFloat64()
		}
	}
	return out
}

// serialReduce is the pre-PR reference: zero + ordered sum + scale.
func serialReduce(bufs []*tensor.Matrix, scale float64) *tensor.Matrix {
	ref := tensor.New(bufs[0].Rows, bufs[0].Cols)
	for _, b := range bufs {
		ref.Add(b)
	}
	ref.Scale(scale)
	return ref
}

// TestAllReduceMatchesDenseAverage pins the deterministic-reduction
// contract at tolerance zero: every chunk count (= rank count) 1..8, with
// odd sizes that leave uneven and empty chunks.
func TestAllReduceMatchesDenseAverage(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 3}, {3, 5}, {5, 13}, {7, 9}, {1, 2}, {16, 16}}
	for d := 1; d <= 8; d++ {
		rt := flatRuntime(t, d)
		grp := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))
		for _, sh := range shapes {
			bufs := randBufs(d, sh[0], sh[1], int64(7*d+sh[0]))
			ref := serialReduce(bufs, 1/float64(d))
			grp.AllReduce(bufs, 1/float64(d))
			for i, b := range bufs {
				if !b.Equal(ref, 0) {
					t.Fatalf("d=%d shape %v: rank %d differs from serial average", d, sh, i)
				}
			}
		}
	}
}

// TestAllReduceSumScale covers the non-average scales the embedding paths
// use (scale 1 = plain sum).
func TestAllReduceSumScale(t *testing.T) {
	rt := flatRuntime(t, 3)
	grp := rt.NewGroup(ClassEmb, rt.Topology().DPGroup(0))
	bufs := randBufs(3, 4, 5, 99)
	ref := serialReduce(bufs, 1)
	grp.AllReduce(bufs, 1)
	for i, b := range bufs {
		if !b.Equal(ref, 0) {
			t.Fatalf("rank %d differs from serial sum", i)
		}
	}
}

// TestAllReduceTrafficAccounting pins the Thakur ring accounting: total
// bytes 2(D−1)·V (so per-rank volume is exactly 2V·(D−1)/D), D·2(D−1)
// messages, 2(D−1) steps — and cross-checks the per-rank volume against
// core.AllReduceVolumeFactor.
func TestAllReduceTrafficAccounting(t *testing.T) {
	for d := 2; d <= 8; d++ {
		rt := flatRuntime(t, d)
		grp := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))
		rows, cols := 7, 13 // odd: chunks differ by one element
		bufs := randBufs(d, rows, cols, int64(d))
		before := rt.Stats().For(ClassDP)
		grp.AllReduce(bufs, 1/float64(d))
		got := rt.Stats().For(ClassDP)
		got.Bytes -= before.Bytes
		got.Messages -= before.Messages
		got.Steps -= before.Steps

		v := int64(rows*cols) * compress.ElemBytes
		if want := 2 * int64(d-1) * v; got.Bytes != want {
			t.Fatalf("d=%d: %d bytes, want %d", d, got.Bytes, want)
		}
		if want := int64(d * 2 * (d - 1)); got.Messages != want {
			t.Fatalf("d=%d: %d messages, want %d", d, got.Messages, want)
		}
		if want := int64(2 * (d - 1)); got.Steps != want {
			t.Fatalf("d=%d: %d steps, want %d", d, got.Steps, want)
		}
		perRank := float64(got.Bytes) / float64(d)
		if want := core.AllReduceVolumeFactor(d) * float64(v); math.Abs(perRank-want) > 1e-9*want {
			t.Fatalf("d=%d: per-rank volume %v, want %v (2V(D-1)/D)", d, perRank, want)
		}
	}
}

// TestAllReduceCompressedMatchesSerialSemantics pins the compressed
// collective to the pre-PR per-group PowerSGD semantics: same seeds, same
// residual trajectories, bit-identical averages over multiple rounds.
func TestAllReduceCompressedMatchesSerialSemantics(t *testing.T) {
	const d, rows, cols, rank = 3, 8, 6, 2
	mkEFs := func() []*compress.ErrorFeedback {
		efs := make([]*compress.ErrorFeedback, d)
		for i := range efs {
			efs[i] = compress.NewErrorFeedback(compress.NewPowerSGD(rank, int64(100+i)))
		}
		return efs
	}
	serialEFs, collEFs := mkEFs(), mkEFs()

	rt := flatRuntime(t, d)
	grp := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))

	for round := 0; round < 4; round++ {
		grads := randBufs(d, rows, cols, int64(40+round))

		// Serial reference: compress each group's gradient with feedback,
		// average the reconstructions in group order, give everyone the
		// average (train.syncStage's compressed path, pre-PR).
		serialBufs := make([]*tensor.Matrix, d)
		for i := range serialBufs {
			serialBufs[i] = grads[i].Clone()
		}
		ref := tensor.New(rows, cols)
		for i, ef := range serialEFs {
			_, recon := ef.CompressWithFeedback(serialBufs[i])
			ref.Add(recon)
		}
		ref.Scale(1 / float64(d))

		collBufs := make([]*tensor.Matrix, d)
		for i := range collBufs {
			collBufs[i] = grads[i].Clone()
		}
		grp.AllReduceCompressed(collBufs, collEFs, 1/float64(d))
		for i, b := range collBufs {
			if !b.Equal(ref, 0) {
				t.Fatalf("round %d: rank %d differs from serial compressed average", round, i)
			}
		}
	}
}

// TestAllReduceCompressedWireAccounting: the payload all-gather accounts
// compressed bytes, not dense bytes — D(D−1) payload messages, D−1 steps.
func TestAllReduceCompressedWireAccounting(t *testing.T) {
	const d, rows, cols, rank = 4, 10, 8, 2
	rt := flatRuntime(t, d)
	grp := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))
	efs := make([]*compress.ErrorFeedback, d)
	for i := range efs {
		efs[i] = compress.NewErrorFeedback(compress.NewPowerSGD(rank, int64(i)))
	}
	bufs := randBufs(d, rows, cols, 5)
	grp.AllReduceCompressed(bufs, efs, 1/float64(d))
	got := rt.Stats().For(ClassDP)

	wire := int64(rank*(rows+cols)) * compress.ElemBytes // one PowerSGD payload
	if want := int64(d*(d-1)) * wire; got.Bytes != want {
		t.Fatalf("%d wire bytes, want %d", got.Bytes, want)
	}
	dense := int64(rows*cols) * compress.ElemBytes
	if got.Bytes >= 2*int64(d-1)*dense {
		t.Fatal("compressed collective moved at least as many bytes as the dense ring")
	}
	if want := int64(d - 1); got.Steps != want {
		t.Fatalf("%d steps, want %d", got.Steps, want)
	}
}

// TestFusedEmbeddingAllReduceVolume executes the §6 fused 2D-way
// embedding all-reduce and checks the per-rank volume against the Eq. 16
// factor (2D−1)/D, and the baseline (two D-way averages + per-replica
// 2-way sums) against the Eq. 15 factor (3D−2)/D.
func TestFusedEmbeddingAllReduceVolume(t *testing.T) {
	const rows, cols = 6, 4
	v := float64(int64(rows*cols) * compress.ElemBytes)
	for _, d := range []int{2, 4, 8} {
		topo, _ := NewTopology(d, 3)
		rt := NewRuntime(topo, nil, nil)

		// Fused: one 2D-way all-reduce over (first, last) of every replica,
		// scaled 1/D (Σ over 2D tensors, averaged over D replicas).
		fused := rt.NewGroup(ClassEmb, topo.EmbGroup())
		bufs := randBufs(2*d, rows, cols, int64(d))
		ref := serialReduce(bufs, 1/float64(d))
		fused.AllReduce(bufs, 1/float64(d))
		for i, b := range bufs {
			if !b.Equal(ref, 0) {
				t.Fatalf("d=%d: fused rank %d differs from serial fused sum", d, i)
			}
		}
		perRank := float64(rt.Stats().For(ClassEmb).Bytes) / float64(2*d)
		if want := core.EmbSyncFusedVolumeFactor(d) * v; perRank != want {
			t.Fatalf("d=%d: fused per-rank volume %v, want Eq.16 %v", d, perRank, want)
		}
		rt.Close()

		// Baseline: per-side D-way averages, then per-replica 2-way sums.
		rt2 := NewRuntime(topo, nil, nil)
		side0 := rt2.NewGroup(ClassEmb, topo.DPGroup(0))
		sideL := rt2.NewGroup(ClassEmb, topo.DPGroup(topo.PP-1))
		b0 := randBufs(d, rows, cols, 21)
		bL := randBufs(d, rows, cols, 22)
		side0.AllReduce(b0, 1/float64(d))
		sideL.AllReduce(bL, 1/float64(d))
		for dd := 0; dd < d; dd++ {
			pair := rt2.NewGroup(ClassEmb, topo.EmbPair(dd))
			pair.AllReduce([]*tensor.Matrix{b0[dd], bL[dd]}, 1)
		}
		perRank = float64(rt2.Stats().For(ClassEmb).Bytes) / float64(2*d)
		if want := core.EmbSyncVolumeFactor(d) * v; perRank != want {
			t.Fatalf("d=%d: baseline per-rank volume %v, want Eq.15 %v", d, perRank, want)
		}
		rt2.Close()
	}
}

func TestBroadcast(t *testing.T) {
	const d, rows, cols = 5, 3, 7
	rt := flatRuntime(t, d)
	grp := rt.NewGroup(ClassPP, rt.Topology().DPGroup(0))
	bufs := randBufs(d, rows, cols, 3)
	root := 2
	want := bufs[root].Clone()
	grp.Broadcast(bufs, root)
	for i, b := range bufs {
		if !b.Equal(want, 0) {
			t.Fatalf("rank %d does not hold the root buffer", i)
		}
	}
	st := rt.Stats().For(ClassPP)
	v := int64(rows*cols) * compress.ElemBytes
	if wantB := int64(d-1) * v; st.Bytes != wantB {
		t.Fatalf("%d bytes, want %d", st.Bytes, wantB)
	}
	if st.Steps != d-1 || st.Messages != d-1 {
		t.Fatalf("steps %d messages %d, want %d each", st.Steps, st.Messages, d-1)
	}
}

// TestConcurrentPerGroupCollectives drives disjoint DP groups from
// separate goroutines on one runtime — the trainer's per-stage fan-out —
// and is the designated -race workout for the token happens-before
// edges.
func TestConcurrentPerGroupCollectives(t *testing.T) {
	const d, stages, rounds = 4, 3, 20
	topo, _ := NewTopology(d, stages)
	rt := NewRuntime(topo, nil, nil)
	defer rt.Close()

	groups := make([]*Group, stages)
	for s := range groups {
		groups[s] = rt.NewGroup(ClassDP, topo.DPGroup(s))
	}
	var wg sync.WaitGroup
	for s := 0; s < stages; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				bufs := randBufs(d, 5, 9, int64(s*1000+round))
				ref := serialReduce(bufs, 1/float64(d))
				groups[s].AllReduce(bufs, 1/float64(d))
				for i, b := range bufs {
					if !b.Equal(ref, 0) {
						t.Errorf("stage %d round %d rank %d wrong", s, round, i)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
}

// TestAllReduceSteadyStateZeroAllocs pins the acceptance criterion
// directly: after warm-up, a collective performs no allocations.
func TestAllReduceSteadyStateZeroAllocs(t *testing.T) {
	const d = 4
	rt := flatRuntime(t, d)
	grp := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))
	bufs := randBufs(d, 9, 11, 1)
	grp.AllReduce(bufs, 1/float64(d)) // warm the pool
	if n := testing.AllocsPerRun(50, func() { grp.AllReduce(bufs, 1/float64(d)) }); n != 0 {
		t.Fatalf("steady-state AllReduce allocates (%v allocs/op)", n)
	}
}

// TestBroadcastSteadyStateZeroAllocs: a warmed 4-rank Broadcast on
// MemTransport allocates nothing.
func TestBroadcastSteadyStateZeroAllocs(t *testing.T) {
	const d = 4
	rt := flatRuntime(t, d)
	grp := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))
	bufs := randBufs(d, 48, 48, 2)
	grp.Broadcast(bufs, 0) // warm the pool
	if n := testing.AllocsPerRun(50, func() { grp.Broadcast(bufs, 0) }); n != 0 {
		t.Fatalf("steady-state Broadcast allocates (%v allocs/op)", n)
	}
}

// TestFusedEmbeddingSteadyStateZeroAllocs: the warmed §6 fused
// embedding all-reduce — one 2D-way ring over the first and last stage
// of 4 replicas — on MemTransport allocates nothing.
func TestFusedEmbeddingSteadyStateZeroAllocs(t *testing.T) {
	const d = 4
	topo, err := NewTopology(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(topo, nil, nil)
	t.Cleanup(rt.Close)
	fused := rt.NewGroup(ClassEmb, topo.EmbGroup())
	bufs := randBufs(2*d, 48, 48, 3)
	fused.AllReduce(bufs, 1/float64(d)) // warm the pool
	if n := testing.AllocsPerRun(50, func() { fused.AllReduce(bufs, 1/float64(d)) }); n != 0 {
		t.Fatalf("steady-state fused embedding all-reduce allocates (%v allocs/op)", n)
	}
}

func TestGroupValidation(t *testing.T) {
	rt := flatRuntime(t, 3)
	for name, f := range map[string]func(){
		"empty group":    func() { rt.NewGroup(ClassDP, nil) },
		"duplicate rank": func() { rt.NewGroup(ClassDP, []int{0, 0}) },
		"rank outside":   func() { rt.NewGroup(ClassDP, []int{0, 9}) },
		"buf count":      func() { rt.NewGroup(ClassDP, []int{0, 1}).AllReduce(randBufs(1, 2, 2, 1), 1) },
		"shape mismatch": func() {
			rt.NewGroup(ClassDP, []int{0, 1}).AllReduce([]*tensor.Matrix{tensor.New(2, 2), tensor.New(2, 3)}, 1)
		},
		"ef count":        func() { rt.NewGroup(ClassDP, []int{0, 1}).AllReduceCompressed(randBufs(2, 2, 2, 1), nil, 1) },
		"broadcast root":  func() { rt.NewGroup(ClassDP, []int{0, 1}).Broadcast(randBufs(2, 2, 2, 1), 2) },
		"transport world": func() { NewMemTransport(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", name)
				}
			}()
			f()
		}()
	}
}
