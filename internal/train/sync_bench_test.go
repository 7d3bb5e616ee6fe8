package train

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
)

func benchTrainer(b *testing.B) *Trainer {
	b.Helper()
	corpus, err := data.Generate(data.Config{
		Vocab: 16, Length: 8000, ValFrac: 0.1, Peakiness: 0.8, Branch: 3, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := core.CBFESC()
	opt.CBRank = 2
	opt.DPRank = 2
	cfg := testConfig(opt)
	// The benchmarks drive syncDataParallel directly, outside an
	// iteration: blocking mode makes that the full issue+wait path
	// (under overlapped sync the work happens during backward).
	cfg.DPSync = DPSyncBlocking
	tr, err := New(cfg, corpus)
	if err != nil {
		b.Fatal(err)
	}
	// Two full iterations populate real gradients and warm every
	// workspace — including the error-feedback input buffers that only
	// exist once a residual is stored — so the benchmark measures steady
	// state.
	tr.TrainIteration()
	tr.TrainIteration()
	return tr
}

// BenchmarkSyncDataParallel measures the DP-group×stage gradient
// synchronization hot path in isolation — the path the pooled-workspace
// engine makes allocation-free (compare allocs/op against the
// pre-refactor ~60+ matrix allocations per call).
func BenchmarkSyncDataParallel(b *testing.B) {
	tr := benchTrainer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.syncDataParallel()
	}
}

// BenchmarkSyncEmbedding measures the §6 embedding-synchronization phase.
func BenchmarkSyncEmbedding(b *testing.B) {
	tr := benchTrainer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.syncEmbedding()
	}
}
