package tensor

import "fmt"

// Sparse is a COO-style sparse view of a Rows×Cols row-major matrix: a
// list of (flat index, value) pairs with Indices strictly ascending. It
// is the native carrier for TopK/RandomK-compressed gradients — the
// point of keeping payloads in this form end to end is that every
// downstream pass (error-feedback residual update, ring reduction,
// decompress-apply) then costs O(nnz) instead of O(Rows·Cols).
//
// Invariant: len(Indices) == len(Values), every index is in
// [0, Rows·Cols), and Indices is strictly ascending. The ascending
// order is what makes MergeUnionInto a linear merge; constructors
// (compress.TopK/RandomK, GatherInto) sort once at build time.
//
// The kernels below are all bit-identical to their densified oracles at
// tolerance 0: scatter-add visits coordinates in the same order a dense
// loop would, and skipping an absent coordinate is IEEE-identical to
// adding 0.0 (up to the sign of zero, which Matrix.Equal at tol 0
// treats as equal).
type Sparse struct {
	Rows, Cols int
	Indices    []int
	Values     []float64
}

// NewSparse returns an empty (nnz = 0) sparse view of a rows×cols shape
// with capacity for capNNZ entries.
func NewSparse(rows, cols, capNNZ int) *Sparse {
	if rows < 0 || cols < 0 || capNNZ < 0 {
		panic(fmt.Sprintf("tensor: NewSparse(%d, %d, %d) with negative argument", rows, cols, capNNZ))
	}
	return &Sparse{
		Rows:    rows,
		Cols:    cols,
		Indices: make([]int, 0, capNNZ),
		Values:  make([]float64, 0, capNNZ),
	}
}

// NNZ returns the number of stored entries.
func (s *Sparse) NNZ() int { return len(s.Values) }

// Reuse resizes s to k entries (contents unspecified) for shape
// rows×cols, reallocating only when capacity is insufficient — the
// steady-state path of every compressor and pool cycle is
// allocation-free.
func (s *Sparse) Reuse(k, rows, cols int) {
	if cap(s.Indices) < k {
		s.Indices = make([]int, k)
		s.Values = make([]float64, k)
	}
	s.Indices = s.Indices[:k]
	s.Values = s.Values[:k]
	s.Rows, s.Cols = rows, cols
}

// CopyFrom makes s an element-wise copy of o (same shape, same nnz),
// reusing s's buffers when they are large enough.
func (s *Sparse) CopyFrom(o *Sparse) {
	s.Reuse(len(o.Values), o.Rows, o.Cols)
	copy(s.Indices, o.Indices)
	copy(s.Values, o.Values)
}

func (s *Sparse) mustMatchShape(m *Matrix, op string) {
	if s.Rows != m.Rows || s.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch sparse %dx%d vs dense %dx%d", op, s.Rows, s.Cols, m.Rows, m.Cols))
	}
}

// SpAxpyInto performs dst += alpha·s on the stored coordinates only:
// dst[i] += alpha·v for every (i, v) in s. With dst zeroed beforehand
// this is a scaled scatter; with alpha = −1 it is the error-feedback
// residual fix-up (residual −= reconstruction restricted to the
// selected coordinates). Bit-identical to AddScaledInto against the
// densified payload because absent coordinates would contribute exactly
// alpha·0.
func SpAxpyInto(dst *Matrix, alpha float64, s *Sparse) {
	s.mustMatchShape(dst, "SpAxpyInto")
	d := dst.Data
	for i, fi := range s.Indices {
		d[fi] += float64(alpha * s.Values[i])
	}
}

// SpScaleInto sets dst = alpha·s, reusing dst's buffers. dst == s
// scales in place.
func SpScaleInto(dst *Sparse, alpha float64, s *Sparse) {
	if dst != s {
		dst.Reuse(len(s.Values), s.Rows, s.Cols)
		copy(dst.Indices, s.Indices)
	}
	for i, v := range s.Values {
		dst.Values[i] = alpha * v
	}
}

// ScatterInto writes s's values at their coordinates of dst, leaving
// every other coordinate of dst untouched.
func (s *Sparse) ScatterInto(dst *Matrix) {
	s.mustMatchShape(dst, "ScatterInto")
	d := dst.Data
	for i, fi := range s.Indices {
		d[fi] = s.Values[i]
	}
}

// DensifyInto writes the dense image of s into dst: zeros everywhere
// except s's coordinates — exactly what DecompressInto of the densified
// path produces.
func (s *Sparse) DensifyInto(dst *Matrix) {
	s.mustMatchShape(dst, "DensifyInto")
	dst.Zero()
	s.ScatterInto(dst)
}

// GatherInto fills dst with src's values at the given flat indices
// (which must be strictly ascending): dst becomes the sparse view
// {(indices[i], src[indices[i]])}. The indices are copied, so the
// caller may reuse its slice.
func GatherInto(dst *Sparse, src *Matrix, indices []int) {
	dst.Reuse(len(indices), src.Rows, src.Cols)
	copy(dst.Indices, indices)
	d := src.Data
	for i, fi := range indices {
		dst.Values[i] = d[fi]
	}
}

// MergeUnionInto sets dst = a + b as sparse operands: the union of the
// two coordinate sets, with values summed (a's value first, i.e.
// a[i] + b[i]) where both are present. dst must not alias a or b. The
// linear merge preserves the ascending-index invariant, and summing
// a-then-b per coordinate makes a left-fold over ranks bit-identical to
// the dense flat-rank-order scatter-add.
func MergeUnionInto(dst *Sparse, a, b *Sparse) {
	if dst == a || dst == b {
		panic("tensor: MergeUnionInto dst aliases an operand")
	}
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MergeUnionInto shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	// Union size is at most nnz(a)+nnz(b); Reuse over-sizes then trims.
	dst.Reuse(len(a.Values)+len(b.Values), a.Rows, a.Cols)
	i, j, k := 0, 0, 0
	for i < len(a.Indices) && j < len(b.Indices) {
		ai, bi := a.Indices[i], b.Indices[j]
		switch {
		case ai < bi:
			dst.Indices[k] = ai
			dst.Values[k] = a.Values[i]
			i++
		case bi < ai:
			dst.Indices[k] = bi
			dst.Values[k] = b.Values[j]
			j++
		default:
			dst.Indices[k] = ai
			dst.Values[k] = a.Values[i] + b.Values[j]
			i, j = i+1, j+1
		}
		k++
	}
	for ; i < len(a.Indices); i++ {
		dst.Indices[k] = a.Indices[i]
		dst.Values[k] = a.Values[i]
		k++
	}
	for ; j < len(b.Indices); j++ {
		dst.Indices[k] = b.Indices[j]
		dst.Values[k] = b.Values[j]
		k++
	}
	dst.Indices = dst.Indices[:k]
	dst.Values = dst.Values[:k]
}
