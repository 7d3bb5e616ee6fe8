package core

// Analytic cost models from the paper.

// AllReduceVolumeFactor returns the per-rank ring all-reduce volume as a
// multiple of the payload V: 2(R−1)/R (Thakur et al.), the factor every
// Eq. 15/16 term is built from. The collective runtime's transport
// accounting is pinned to this exact value by tests.
func AllReduceVolumeFactor(ranks int) float64 {
	if ranks <= 1 {
		return 0
	}
	r := float64(ranks)
	return 2 * (r - 1) / r
}

// EmbSyncVolumeFactor returns the §6 Eq. 15 baseline embedding-sync cost
// as a multiple of the embedding volume V: (3D−2)/D, the sum of a D-way
// ring all-reduce (2(D−1)/D) and a 2-way all-reduce (1).
func EmbSyncVolumeFactor(dataParallel int) float64 {
	d := float64(dataParallel)
	return (float64(3*d) - 2) / d
}

// EmbSyncFusedVolumeFactor returns the Eq. 16 fused cost factor:
// (2D−1)/D, a single 2D-way ring all-reduce.
func EmbSyncFusedVolumeFactor(dataParallel int) float64 {
	d := float64(dataParallel)
	return (2*d - 1) / d
}

// EmbSyncImprovement returns the speedup of fused over baseline embedding
// synchronization, (D−1)/(2D−1): 42.9% at D=4, approaching 50% as D grows
// (§6).
func EmbSyncImprovement(dataParallel int) float64 {
	return EmbSyncVolumeFactor(dataParallel)/EmbSyncFusedVolumeFactor(dataParallel) - 1
}

// CompressionCostModel predicts PowerSGD compression/decompression time on
// an accelerator from first principles, reproducing the Fig. 15 trends:
//
//   - Compression of an n×m matrix at rank r costs two n·m·r matmuls plus
//     Gram–Schmidt orthogonalization (≈2·n·r² FLOPs but memory-bound and
//     poorly parallel — the paper measures it at ~80% of compression time,
//     which the OrthoPenalty factor models).
//   - Decompression is a single n·m·r matmul — why Fig. 15 shows it ~2
//     orders of magnitude faster.
//   - A fixed per-kernel setup cost dominates small inputs, which is why
//     throughput *rises* with model size.
//   - Time grows with rank while payload bytes stay ~proportional, which
//     is why throughput *falls* with rank.
type CompressionCostModel struct {
	// GPUFLOPs is the effective FLOP/s applied to the matmul terms.
	GPUFLOPs float64
	// OrthoPenalty multiplies the Gram–Schmidt term to reflect its poor
	// GPU efficiency (paper: orthogonalization ≈80% of compression time
	// at rank 16 on GPT-8.3B shapes).
	OrthoPenalty float64
	// SetupSec is the fixed kernel-launch overhead per (de)compression.
	SetupSec float64
}

// DefaultCompressionCostModel returns constants fitted to the Fig. 15
// operating point for *inter-stage* compression on GPT-8.3B: the
// activation-gradient matrix is (micro-batch·seq)×hidden = 8192×3072, and
// at rank 16 the paper measures ≈787 Gb/s compression and ≈68 Tb/s
// decompression. With these constants the model gives ≈0.77 Tb/s and
// ≈14 Tb/s, with orthogonalization dominating compression time as §9.6
// reports, throughput falling with rank, and rank 512 degrading sharply
// (the Fig. 13-middle effect).
func DefaultCompressionCostModel() CompressionCostModel {
	return CompressionCostModel{GPUFLOPs: 93.6e12, OrthoPenalty: 10900, SetupSec: 20e-6}
}

// CompressTime returns the modeled time to compress an n×m matrix at rank r.
func (c CompressionCostModel) CompressTime(n, m, r int) float64 {
	fn, fm, fr := float64(n), float64(m), float64(r)
	matmul := 2 * float64(2*fn*fm*fr) // M·Q and Mᵀ·P, 2·n·m·r FLOPs each
	ortho := float64(2 * fn * fr * fr * c.OrthoPenalty)
	return c.SetupSec + (matmul+ortho)/c.GPUFLOPs
}

// DecompressTime returns the modeled time to reconstruct P·Qᵀ.
func (c CompressionCostModel) DecompressTime(n, m, r int) float64 {
	return c.SetupSec + 2*float64(n)*float64(m)*float64(r)/c.GPUFLOPs
}

// SparseCompressTime returns the modeled time for a sparse-native
// TopK/RandomK compression of an n×m matrix keeping k elements: one
// dense selection pass over the n·m input (quickselect / index draw)
// plus a 2k gather of the kept (index, value) pairs, under the same
// fixed kernel setup. Unlike the low-rank codec there is no
// orthogonalization term, which is why sparse codecs price orders of
// magnitude cheaper at equal element budgets.
func (c CompressionCostModel) SparseCompressTime(n, m, k int) float64 {
	return c.SetupSec + (float64(float64(n)*float64(m))+float64(2*float64(k)))/c.GPUFLOPs
}

// SparseDecompressTime returns the modeled time to scatter a k-element
// sparse payload back into a dense buffer: cost scales with nnz, not
// the dense shape — decompression of a 1% payload is ~100× cheaper
// than the dense pass the densified path pays.
func (c CompressionCostModel) SparseDecompressTime(k int) float64 {
	return c.SetupSec + 2*float64(k)/c.GPUFLOPs
}

// SparseReduceTime returns the modeled time to merge-union reduce
// sparse payloads totalling totalNNZ stored elements across ranks: a
// linear two-pointer merge touches each (index, value) pair once.
func (c CompressionCostModel) SparseReduceTime(totalNNZ int) float64 {
	return 2 * float64(totalNNZ) / c.GPUFLOPs
}

// CompressThroughputBps returns the modeled compression throughput in
// bits/second for the dense input size (n×m×elemBytes), the Fig. 15
// y-axis.
func (c CompressionCostModel) CompressThroughputBps(n, m, r, elemBytes int) float64 {
	bits := float64(int64(n)*int64(m)*int64(elemBytes)) * 8
	return bits / c.CompressTime(n, m, r)
}

// DecompressThroughputBps returns the modeled decompression throughput in
// bits/second.
func (c CompressionCostModel) DecompressThroughputBps(n, m, r, elemBytes int) float64 {
	bits := float64(int64(n)*int64(m)*int64(elemBytes)) * 8
	return bits / c.DecompressTime(n, m, r)
}

// LowRankWireBytes returns the wire size of a rank-r factorization of an
// n×m matrix at elemBytes width: r·(n+m) elements.
func LowRankWireBytes(n, m, r, elemBytes int) int64 {
	if r > n {
		r = n
	}
	if r > m {
		r = m
	}
	return int64(r) * int64(n+m) * int64(elemBytes)
}
