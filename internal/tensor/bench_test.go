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
