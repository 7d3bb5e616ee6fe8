package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMatMulKernels times the three matmul kernels in the roles a
// B×in×out linear layer gives them — forward x·W (MatMulInto, B×in by
// in×out), weight gradient xᵀ·dy (MatMulATInto, a B-term sum per in×out
// output), input gradient dy·Wᵀ (MatMulBTInto, an out-term sum per B×in
// output) — at the shapes the trainer runs: the default model's block
// (16×48×48), input projection (16×144×48) and tied-embedding head
// (16×48×32), the DP-heavy grid's 4-row micro-batch (4×32×32), a rank-4
// PowerSGD factorisation of a 128×128 matrix (M·Q, Mᵀ·P, P·Qᵀ are the same
// three roles at 128×128×4) and a rank-64 one of a 1024×3072 matrix, whose
// P·Qᵀ is the 1024×64·(3072×64)ᵀ reconstruction. Each reports ns per
// multiply-add, the number README states per kernel and shape.
func BenchmarkMatMulKernels(b *testing.B) {
	shapes := []struct{ batch, in, out int }{
		{16, 48, 48},
		{16, 144, 48},
		{16, 48, 32},
		{4, 32, 32},
		{128, 128, 4},
		{1024, 3072, 64},
	}
	kernels := []struct {
		name string
		// dims returns the shapes of dst, a and b for a batch×in×out layer.
		dims func(batch, in, out int) (dst, a, b [2]int)
		fn   func(dst, a, b *Matrix)
	}{
		{"MatMul", func(bt, in, out int) (dst, a, b [2]int) {
			return [2]int{bt, out}, [2]int{bt, in}, [2]int{in, out}
		}, MatMulInto},
		{"MatMulAT", func(bt, in, out int) (dst, a, b [2]int) {
			return [2]int{in, out}, [2]int{bt, in}, [2]int{bt, out}
		}, MatMulATInto},
		{"MatMulBT", func(bt, in, out int) (dst, a, b [2]int) {
			return [2]int{bt, in}, [2]int{bt, out}, [2]int{in, out}
		}, MatMulBTInto},
	}
	for _, kn := range kernels {
		for _, sh := range shapes {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", kn.name, sh.batch, sh.in, sh.out), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				dd, ad, bd := kn.dims(sh.batch, sh.in, sh.out)
				x := RandN(rng, ad[0], ad[1], 1)
				y := RandN(rng, bd[0], bd[1], 1)
				dst := New(dd[0], dd[1])
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kn.fn(dst, x, y)
				}
				macs := float64(sh.batch) * float64(sh.in) * float64(sh.out)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/macs, "ns/MAC")
			})
		}
	}
}

// benchPaths runs f as a sub-benchmark on each routine path: "selected"
// (what init chose, the AVX routines on an amd64 CPU with AVX) and
// "portable" (the Go loops).
func benchPaths(b *testing.B, f func(b *testing.B)) {
	for _, p := range []struct {
		name string
		kern routines
	}{{"selected", kern}, {"portable", portable}} {
		b.Run(p.name, func(b *testing.B) {
			saved := kern
			defer func() { kern = saved }()
			kern = p.kern
			f(b)
		})
	}
}

// reportPerElement reports ns per element of an n-element pass.
func reportPerElement(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
}

// BenchmarkElementwise times the elementwise passes of the DP-grid
// iteration — Add (gradient accumulation), Scale (the DP average) and
// AddScaledInto (error feedback) — at the default model's and the
// DP-heavy grid's weight shapes, in ns per element on each path.
func BenchmarkElementwise(b *testing.B) {
	for _, n := range []int{32, 48} {
		rng := rand.New(rand.NewSource(1))
		x, y, dst := RandN(rng, n, n, 1), RandN(rng, n, n, 1), New(n, n)
		ops := []struct {
			name string
			fn   func()
		}{
			{"Add", func() { dst.Add(x) }},
			{"Scale", func() { dst.Scale(-1) }},
			{"AddScaledInto", func() { AddScaledInto(dst, x, -1, y) }},
		}
		for _, op := range ops {
			b.Run(fmt.Sprintf("%s/%dx%d", op.name, n, n), func(b *testing.B) {
				benchPaths(b, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						op.fn()
					}
					reportPerElement(b, n*n)
				})
			})
		}
	}
}

// BenchmarkSGDStep times one momentum-SGD step with clipping on a 48×48
// weight, in ns per element on each path.
func BenchmarkSGDStep(b *testing.B) {
	const n = 48
	rng := rand.New(rand.NewSource(1))
	p, g, vel := RandN(rng, n, n, 1), RandN(rng, n, n, 1), New(n, n)
	benchPaths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SGDStep(p, g, vel, -1e-9, 0.9, 1)
		}
		reportPerElement(b, n*n)
	})
}
