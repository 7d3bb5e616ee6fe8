package compress

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestDecompressIntoMatchesDecompress is the regression contract of the
// pooled API: for every compressor, reconstructing into a reused (dirty)
// destination must be bit-identical to the allocating path.
func TestDecompressIntoMatchesDecompress(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, c := range allCompressors(51) {
		m := tensor.RandN(rng, 11, 7, 1)
		pl := c.Compress(m)
		want := c.Decompress(pl)
		dst := tensor.New(11, 7)
		dst.Fill(123) // stale contents must not survive
		c.DecompressInto(dst, pl)
		if !dst.Equal(want, 0) {
			t.Fatalf("%s: DecompressInto differs from Decompress", c.Name())
		}
	}
}

func TestDecompressIntoShapeMismatchPanics(t *testing.T) {
	for _, c := range allCompressors(52) {
		pl := c.Compress(tensor.New(4, 4))
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: wrong-shape dst should panic", c.Name())
				}
			}()
			c.DecompressInto(tensor.New(4, 5), pl)
		}()
	}
}

// TestCompressorsSteadyStateZeroAlloc pins the tentpole property: after a
// warm-up call per shape, Compress + DecompressInto allocate nothing.
func TestCompressorsSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	m := tensor.RandN(rng, 24, 18, 1)
	dst := tensor.New(24, 18)
	for _, c := range allCompressors(53) {
		c.DecompressInto(dst, c.Compress(m)) // warm the workspaces
		n := testing.AllocsPerRun(20, func() {
			c.DecompressInto(dst, c.Compress(m))
		})
		if n != 0 {
			t.Fatalf("%s: %v allocs per steady-state round trip", c.Name(), n)
		}
	}
}

func TestErrorFeedbackSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	m := tensor.RandN(rng, 16, 12, 1)
	for _, inner := range []Compressor{NewPowerSGD(2, 54), NewTopK(0.05), NewRandomK(0.05, 54)} {
		ef := NewErrorFeedback(inner)
		ef.CompressWithFeedback(m)
		ef.CompressWithFeedback(m) // second call exercises the residual path
		n := testing.AllocsPerRun(20, func() { ef.CompressWithFeedback(m) })
		if n != 0 {
			t.Fatalf("%s: CompressWithFeedback allocates %v per steady-state call", inner.Name(), n)
		}
	}
	// The sparse-native path of the sparse families.
	for _, inner := range []Compressor{NewTopK(0.05), NewRandomK(0.05, 54)} {
		ef := NewErrorFeedback(inner)
		ef.CompressWithFeedbackSparse(m)
		ef.CompressWithFeedbackSparse(m)
		n := testing.AllocsPerRun(20, func() { ef.CompressWithFeedbackSparse(m) })
		if n != 0 {
			t.Fatalf("%s: CompressWithFeedbackSparse allocates %v per steady-state call", inner.Name(), n)
		}
	}
}

// TestPowerSGDPooledMatchesFresh verifies the workspace-reusing engine is
// bit-identical to a fresh instance processing the same sequence — i.e.
// buffer reuse changes nothing about the math, including warm-start state
// carried across calls and interleaved shapes.
func TestPowerSGDPooledMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	seqA := make([]*tensor.Matrix, 6)
	seqB := make([]*tensor.Matrix, 6)
	for i := range seqA {
		seqA[i] = tensor.RandN(rng, 20, 14, 1)
		seqB[i] = tensor.RandN(rng, 9, 27, 1)
	}
	run := func() [][]float64 {
		c := NewPowerSGD(3, 99)
		var out [][]float64
		for i := range seqA {
			ra := c.Decompress(c.Compress(seqA[i]))
			rb := c.Decompress(c.Compress(seqB[i]))
			out = append(out, append(append([]float64{}, ra.Data...), rb.Data...))
		}
		return out
	}
	first := run()
	second := run()
	for i := range first {
		for j := range first[i] {
			if first[i][j] != second[i][j] {
				t.Fatalf("step %d elem %d: %v vs %v", i, j, first[i][j], second[i][j])
			}
		}
	}
}

func TestPowerSGDWarmStateEviction(t *testing.T) {
	c := NewPowerSGD(1, 56)
	// Push far more shapes than the cap; each is seen once.
	for i := 0; i < MaxWarmShapes*2; i++ {
		c.Compress(tensor.New(2, 3+i))
	}
	if got := c.WarmShapeCount(); got > MaxWarmShapes {
		t.Fatalf("warm-state map grew to %d, cap is %d", got, MaxWarmShapes)
	}
	// A hot shape must keep its warm start across the churn.
	rng := rand.New(rand.NewSource(56))
	hot := tensor.RandN(rng, 12, 10, 1)
	c2 := NewPowerSGD(2, 57)
	c2.Compress(hot)
	for i := 0; i < 10; i++ {
		c2.Compress(tensor.New(2, 100+i)) // churn
		c2.Compress(hot)                  // keep hot shape recent
	}
	st, ok := c2.states.peek([2]int{12, 10})
	if !ok || st.warmQ == nil {
		t.Fatal("hot shape lost its warm-start state")
	}
}

func TestPowerSGDStaleShapeEvicted(t *testing.T) {
	c := NewPowerSGD(1, 58)
	stale := tensor.New(5, 5)
	c.Compress(stale)
	// Push enough fresh shapes to exceed the cap: the stale entry is the
	// least recently used, so the first over-cap sweep drops it.
	for i := 0; i < MaxWarmShapes+4; i++ {
		c.Compress(tensor.New(2, 200+i))
	}
	if _, ok := c.states.peek([2]int{5, 5}); ok {
		t.Fatal("stale shape survived eviction")
	}
}

// TestPayloadValidUntilNextCompress documents the payload-lifetime
// contract: a payload decompressed before the next Compress of its shape
// round-trips correctly.
func TestPayloadValidUntilNextCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, c := range allCompressors(59) {
		m1 := tensor.RandN(rng, 8, 8, 1)
		m2 := tensor.RandN(rng, 8, 8, 1)
		pl1 := c.Compress(m1)
		r1 := c.Decompress(pl1) // consumed before the next Compress
		pl2 := c.Compress(m2)
		r2 := c.Decompress(pl2)
		if r1.Equal(r2, 0) {
			t.Fatalf("%s: distinct inputs reconstructed identically (payload aliasing bug)", c.Name())
		}
	}
}

func TestRelativeErrorShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	RelativeError(tensor.New(2, 3), tensor.New(3, 3))
}

// TestWrapperShapeStatesBounded covers the non-PowerSGD per-shape maps:
// ErrorFeedback scratch, Identity snapshots, and Instrumented probes must
// all stay within maxShapeStates under shape churn.
func TestWrapperShapeStatesBounded(t *testing.T) {
	ef := NewErrorFeedback(NewTopK(0.5))
	id := NewIdentity()
	inst := NewInstrumented(NewTopK(0.5))
	for i := 0; i < maxShapeStates*2; i++ {
		m := tensor.New(2, 3+i)
		ef.CompressWithFeedback(m)
		id.Compress(m)
		inst.Compress(m)
	}
	if n := ef.states.size(); n > maxShapeStates {
		t.Fatalf("ErrorFeedback states grew to %d, cap %d", n, maxShapeStates)
	}
	if n := id.buf.size(); n > maxShapeStates {
		t.Fatalf("Identity snapshots grew to %d, cap %d", n, maxShapeStates)
	}
	if n := inst.recon.size(); n > maxShapeStates {
		t.Fatalf("Instrumented probes grew to %d, cap %d", n, maxShapeStates)
	}
	// The hottest (most recent) shape keeps its residual.
	last := [2]int{2, 3 + maxShapeStates*2 - 1}
	if ef.Residual(last[0], last[1]) == nil {
		t.Fatal("most recent shape lost its residual")
	}
}

func TestIdentityRoundTripViaInto(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	m := tensor.RandN(rng, 6, 9, 1)
	c := NewIdentity()
	dst := tensor.New(6, 9)
	c.DecompressInto(dst, c.Compress(m))
	if !dst.Equal(m, 0) {
		t.Fatal("identity DecompressInto must be lossless")
	}
	// The payload snapshots the input: mutating m afterwards must not
	// change what the payload decompresses to.
	pl := c.Compress(m)
	m.Fill(0)
	c.DecompressInto(dst, pl)
	if dst.FrobeniusNorm() == 0 {
		t.Fatal("identity payload aliased its input instead of snapshotting")
	}
}

func TestSetPoolRouting(t *testing.T) {
	pool := tensor.NewPool()
	ps := NewPowerSGD(2, 61)
	ef := NewErrorFeedback(ps)
	ef.SetPool(pool)
	rng := rand.New(rand.NewSource(61))
	m := tensor.RandN(rng, 10, 10, 1)
	ef.CompressWithFeedback(m)
	if pool.Stats().Gets == 0 {
		t.Fatal("SetPool did not route workspace allocation through the custom pool")
	}
}

func ExampleCompressor_decompressInto() {
	c := NewPowerSGD(2, 1)
	g := tensor.New(4, 4)
	g.Fill(1)
	dst := tensor.New(4, 4)
	c.DecompressInto(dst, c.Compress(g))
	fmt.Println(dst.Rows, dst.Cols)
	// Output: 4 4
}
