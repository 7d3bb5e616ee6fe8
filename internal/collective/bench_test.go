package collective

import (
	"fmt"
	"testing"

	"repro/internal/compress"
)

// BenchmarkAllReduce measures the dense ring all-reduce at the trainer's
// DP widths. The acceptance bar is 0 allocs/op on steady state.
func BenchmarkAllReduce(b *testing.B) {
	for _, d := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			rt := flatRuntime(b, d)
			grp := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))
			bufs := randBufs(d, 48, 48, 1)
			grp.AllReduce(bufs, 1/float64(d))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				grp.AllReduce(bufs, 1/float64(d))
			}
		})
	}
}

// BenchmarkAllReduceCompressed measures the error-feedback compressed
// collective (the §7 selective-stage DP path) on collective-mix's shapes:
// PowerSGD rank 4 on 128×128 and TopK 2 % on 256×256, at D = 4 and 8.
func BenchmarkAllReduceCompressed(b *testing.B) {
	families := []struct {
		name  string
		side  int
		build func(member int) compress.Compressor
	}{
		{"powersgd", 128, func(i int) compress.Compressor { return compress.NewPowerSGD(4, int64(100+i)) }},
		{"topk", 256, func(int) compress.Compressor { return compress.NewTopK(0.02) }},
	}
	for _, d := range []int{4, 8} {
		for _, f := range families {
			b.Run(fmt.Sprintf("d%d/%s", d, f.name), func(b *testing.B) {
				rt := flatRuntime(b, d)
				grp := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))
				efs := make([]*compress.ErrorFeedback, d)
				for i := range efs {
					efs[i] = compress.NewErrorFeedback(f.build(i))
					efs[i].SetPool(rt.Pool())
				}
				bufs := randBufs(d, f.side, f.side, 1)
				// Two warm-up rounds: the second faults in the error-feedback
				// input buffers that only exist once a residual is stored.
				grp.AllReduceCompressed(bufs, efs, 1/float64(d))
				grp.AllReduceCompressed(bufs, efs, 1/float64(d))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					grp.AllReduceCompressed(bufs, efs, 1/float64(d))
				}
			})
		}
	}
}

// BenchmarkFusedEmbeddingAllReduce measures the §6 fused 2D-way op.
func BenchmarkFusedEmbeddingAllReduce(b *testing.B) {
	const d = 4
	topo, _ := NewTopology(d, 4)
	rt := NewRuntime(topo, nil, nil)
	b.Cleanup(rt.Close)
	grp := rt.NewGroup(ClassEmb, topo.EmbGroup())
	bufs := randBufs(2*d, 32, 48, 1)
	grp.AllReduce(bufs, 1/float64(d))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grp.AllReduce(bufs, 1/float64(d))
	}
}

// BenchmarkBroadcast measures the ring pipeline broadcast.
func BenchmarkBroadcast(b *testing.B) {
	const d = 4
	rt := flatRuntime(b, d)
	grp := rt.NewGroup(ClassPP, rt.Topology().DPGroup(0))
	bufs := randBufs(d, 48, 48, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grp.Broadcast(bufs, 0)
	}
}
