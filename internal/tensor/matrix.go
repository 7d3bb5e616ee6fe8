// Package tensor provides the dense linear-algebra substrate used by the
// Optimus-CC reproduction: matrices and vectors of float64 with the
// operations needed for MLP language-model training (matmul, transposes,
// element-wise maps, reductions) and for PowerSGD-style low-rank
// compression (Gram–Schmidt orthogonalization, Frobenius norms).
//
// Everything is row-major and backed by a single []float64 so matrices can
// be flattened, sliced, and communicated as contiguous payloads — the same
// property the paper relies on when it ships gradient tensors between
// pipeline stages and data-parallel groups.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix. The zero value is an empty matrix;
// use New or FromSlice to build a usable one.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src's contents into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.mustSameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Shape returns (rows, cols).
func (m *Matrix) Shape() (int, int) { return m.Rows, m.Cols }

// Slice returns a flat-range view of elements [lo, hi) as a 1×(hi−lo)
// matrix sharing m's backing array (not a copy). Views are what the
// collective runtime's reduce-scatter chunks are made of: writes through a
// view are writes to m. A view must not be Put into a Pool — it does not
// own its storage. Panics when the range is out of bounds.
func (m *Matrix) Slice(lo, hi int) *Matrix {
	v := &Matrix{}
	m.SliceInto(v, lo, hi)
	return v
}

// SliceInto repoints view at elements [lo, hi) of m without allocating,
// for hot paths that reuse one view header across many chunks. The
// previous contents of the header are irrelevant; its storage (if any) is
// not touched. Panics when the range is out of bounds.
func (m *Matrix) SliceInto(view *Matrix, lo, hi int) {
	if lo < 0 || hi < lo || hi > len(m.Data) {
		panic(fmt.Sprintf("tensor: Slice [%d,%d) outside matrix of %d elements", lo, hi, len(m.Data)))
	}
	view.Rows, view.Cols = 1, hi-lo
	view.Data = m.Data[lo:hi:hi]
}

// NumElements returns Rows*Cols.
func (m *Matrix) NumElements() int { return m.Rows * m.Cols }

// SizeBytes returns the wire size of the dense payload assuming elemBytes
// bytes per element (the paper's setting is fp16, i.e. 2).
func (m *Matrix) SizeBytes(elemBytes int) int64 {
	return int64(m.NumElements()) * int64(elemBytes)
}

func (m *Matrix) mustSameShape(o *Matrix, op string) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Add sets m = m + o and returns m.
func (m *Matrix) Add(o *Matrix) *Matrix {
	m.mustSameShape(o, "Add")
	kern.add(m.Data, o.Data[:len(m.Data)])
	return m
}

// AddRowVector adds the 1×Cols v to every row of m and returns m: the
// bias add of a linear layer.
func (m *Matrix) AddRowVector(v *Matrix) *Matrix {
	if v.Rows != 1 || v.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector %dx%d to rows of %dx%d", v.Rows, v.Cols, m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		kern.add(m.Row(i), v.Data[:m.Cols])
	}
	return m
}

// AccumulateRows adds every row of src to the 1×Cols m, in row order, and
// returns m: each element of m gains its column's terms one at a time from
// the first row to the last, as a bias gradient accumulates them.
func (m *Matrix) AccumulateRows(src *Matrix) *Matrix {
	if m.Rows != 1 || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: AccumulateRows of %dx%d into %dx%d", src.Rows, src.Cols, m.Rows, m.Cols))
	}
	for i := 0; i < src.Rows; i++ {
		kern.add(m.Data[:m.Cols], src.Row(i))
	}
	return m
}

// Sub sets m = m - o and returns m.
func (m *Matrix) Sub(o *Matrix) *Matrix {
	m.mustSameShape(o, "Sub")
	for i, v := range o.Data {
		m.Data[i] -= v
	}
	return m
}

// Scale sets m = s*m and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	kern.scale(m.Data, s)
	return m
}

// AddScaled sets m = m + s*o and returns m (axpy).
func (m *Matrix) AddScaled(s float64, o *Matrix) *Matrix {
	AddScaledInto(m, m, s, o)
	return m
}

// Hadamard sets m = m ⊙ o (element-wise product) and returns m.
func (m *Matrix) Hadamard(o *Matrix) *Matrix {
	m.mustSameShape(o, "Hadamard")
	for i, v := range o.Data {
		m.Data[i] *= v
	}
	return m
}

// Apply sets every element to f(element) and returns m.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
	return m
}

// T returns a newly allocated transpose of m.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	TInto(out, m)
	return out
}

// TInto writes the transpose of src into dst without allocating. dst must
// be src.Cols × src.Rows and must not alias src.
func TInto(dst, src *Matrix) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("tensor: TInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, src.Cols, src.Rows))
	}
	// Four src rows at a time, with the headers in locals: each dst row
	// gets four neighbouring elements per visit instead of one (1.0 → 0.5
	// ns per element at 32×32).
	n, m, sd, dd := src.Rows, src.Cols, src.Data, dst.Data
	i := 0
	for ; i+4 <= n; i += 4 {
		r0, r1, r2, r3 := sd[i*m:][:m], sd[(i+1)*m:][:m], sd[(i+2)*m:][:m], sd[(i+3)*m:][:m]
		for j := range r0 {
			o := dd[j*n+i:][:4]
			o[0], o[1], o[2], o[3] = r0[j], r1[j], r2[j], r3[j]
		}
	}
	for ; i < n; i++ {
		for j, v := range sd[i*m:][:m] {
			dd[j*n+i] = v
		}
	}
}

// AddScaledInto computes dst = a + s*b without allocating (fused axpy into
// a destination). dst may alias a or b; shapes must match.
func AddScaledInto(dst, a *Matrix, s float64, b *Matrix) {
	dst.mustSameShape(a, "AddScaledInto")
	dst.mustSameShape(b, "AddScaledInto")
	n := len(dst.Data)
	kern.addScaled(dst.Data, a.Data[:n], s, b.Data[:n])
}

// MatMul returns a new matrix a×b. Panics if inner dimensions differ.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// The matmul kernels share one contract, stated per output element: its
// terms are accumulated over k in ascending order, from +0, each product
// rounded before it is added (written float64(x*y), so a target that may
// fuse multiply-adds — arm64, riscv64 — cannot skip that rounding; the AVX
// routines issue a separate multiply and add), and never reassociated.
// The axpy-form kernels (MatMulInto, MatMulATInto) skip a term exactly when
// its a operand is 0; MatMulBTInto skips nothing. Every traversal that
// honours the contract produces the same bits, so the kernels are free to
// block for registers and to work on four output elements per instruction:
// they differ from the reference triple loops (into_test.go) only in how
// many instructions, memory operations and branches each multiply-add
// costs. All three run the same inner loops: mulAdd4 four k steps at a
// time, mulAdd one, and skinnyRows every k step of 2- or 4-wide rows.

// skinnyPanel bounds the k range of one register pass of MatMulATInto's
// skinny path (see skinny), which reads a by columns: 64 rows keep the
// lines of a column panel in L1 until the neighbouring columns have used
// them (unpanelled, a 1024×3072 a measured 2.3–5.5 ns per multiply-add).
const skinnyPanel = 64

// MatMulInto computes dst = a×b without allocating. dst must be a.Rows ×
// b.Cols and must not alias a or b.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	matMulRows(dst, a, b.Data, true)
}

// matMulRows sets dst = a×b for the a.Cols×dst.Cols row-major b in bd,
// one dst row at a time: each row gathers its k terms four at a time
// through axpy4 (skip set) or mulAdd4 (skip clear, no term skipped); a
// skinny dst goes through skinnyRows instead.
func matMulRows(dst, a *Matrix, bd []float64, skip bool) {
	dst.Zero()
	kk, m := a.Cols, dst.Cols
	if skinny(m) {
		skinnyRows(dst.Data, m, a.Data, kk, 1, bd[:kk*m], skip)
		return
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		d := dst.Row(i)
		k := 0
		for ; k+4 <= kk; k += 4 {
			bk := bd[k*m : (k+4)*m]
			if skip {
				axpy4(d, arow[k], arow[k+1], arow[k+2], arow[k+3], bk)
			} else {
				mulAdd4(d, arow[k], arow[k+1], arow[k+2], arow[k+3], bk)
			}
		}
		for ; k < kk; k++ {
			bk := bd[k*m : (k+1)*m]
			if skip {
				axpy(d, arow[k], bk)
			} else {
				mulAdd(d, arow[k], bk)
			}
		}
	}
}

// MatMulATInto computes dst = aᵀ×b without materializing aᵀ.
// a is n×m, b is n×p, dst must be m×p.
func MatMulATInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulAT inner mismatch %dx%d^T * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	dst.Zero()
	n, m, p := a.Rows, a.Cols, b.Cols
	ad, bd, dd := a.Data, b.Data, dst.Data
	if skinny(p) {
		for k := 0; k < n; k += skinnyPanel {
			kEnd := min(k+skinnyPanel, n)
			ak, bk := ad[k*m:kEnd*m], bd[k*p:kEnd*p]
			skinnyRows(dd, p, ak, 1, m, bk, true)
		}
		return
	}
	k := 0
	for ; k+4 <= n; k += 4 {
		ak := ad[k*m : (k+4)*m]
		a0, a1, a2, a3 := ak[:m], ak[m:][:m], ak[2*m:][:m], ak[3*m:][:m]
		bk := bd[k*p : (k+4)*p]
		for i := range a0 {
			axpy4(dd[i*p:(i+1)*p], a0[i], a1[i], a2[i], a3[i], bk)
		}
	}
	for ; k < n; k++ {
		brow := bd[k*p : (k+1)*p]
		for i, av := range ad[k*m : (k+1)*m] {
			axpy(dd[i*p:(i+1)*p], av, brow)
		}
	}
}

// btScratch holds MatMulBTInto's transposed operands between calls, so
// the steady state allocates nothing; a Pool, because the trainer's rank
// goroutines call the kernel concurrently.
var btScratch = NewPool()

// MatMulBTInto computes dst = a×bᵀ. a is n×m, b is p×m, dst must be n×p.
// Each output is the same k-ascending sum from +0 that a dot product of a
// row of a with a row of b gives, with no term skipped, by one of two
// traversals. In general it transposes b into pooled scratch and runs
// MatMulInto's row loop. When a has 2 or 4 rows and transposing a and the
// result moves fewer elements than transposing b (a small batch against a
// weight matrix), it computes dstᵀ = b×aᵀ instead, every dstᵀ row a
// skinny row, and transposes that back.
func MatMulBTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBT inner mismatch %dx%d * %dx%d^T", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulBTInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	n, m, p := a.Rows, a.Cols, b.Rows
	if btTransposesA(n, m, p) {
		at := btScratch.GetUninit(m, n)
		dt := btScratch.GetUninit(p, n)
		TInto(at, a)
		matMulRows(dt, b, at.Data, false)
		TInto(dst, dt)
		btScratch.Put(at)
		btScratch.Put(dt)
		return
	}
	bt := btScratch.GetUninit(m, p)
	TInto(bt, b)
	matMulRows(dst, a, bt.Data, false)
	btScratch.Put(bt)
}

// btTransposesA reports whether MatMulBTInto computes an n×m by (p×m)ᵀ
// product as the transpose of b×aᵀ: when a has 2 or 4 rows and the two
// transposes that takes move fewer elements than transposing b.
func btTransposesA(n, m, p int) bool { return skinny(n) && n*(m+p) < p*m }

// axpy is one k step of an axpy-form kernel: it adds av·b to d element by
// element, or nothing at all when av is 0 — the zero skip, which keeps
// 0·Inf and the sign of a −0 product out of the sums.
func axpy(d []float64, av float64, b []float64) {
	if av != 0 {
		mulAdd(d, av, b)
	}
}

// mulAdd is axpy without the zero skip: d[j] += av·b[j].
func mulAdd(d []float64, av float64, b []float64) {
	kern.addScaled(d, d, av, b[:len(d)])
}

// axpy4 is four consecutive k steps against the four len(d)-long rows
// packed in b, with axpy's zero skip: when any a operand is 0 it falls
// back to four single steps, otherwise it runs mulAdd4.
//
// Not inlined on purpose: inside a kernel its loops compete with the
// kernel's own live slices for registers and the row bases get reloaded
// from the stack every iteration (0.50 instead of 0.28 ns per multiply-add
// measured in MatMulATInto, when the four-step loop itself lived here).
//
//go:noinline
func axpy4(d []float64, a0, a1, a2, a3 float64, b []float64) {
	if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
		p := len(d)
		axpy(d, a0, b[:p])
		axpy(d, a1, b[p:][:p])
		axpy(d, a2, b[2*p:][:p])
		axpy(d, a3, b[3*p:][:p])
		return
	}
	mulAdd4(d, a0, a1, a2, a3, b)
}

// mulAdd4 is four consecutive k steps with no zero skip against the four
// len(d)-long rows packed in b (len(b) must be 4·len(d)): d[j] += a0·b0[j],
// then a1·b1[j], a2·b2[j] and a3·b3[j], each d element loaded and stored
// once for the four multiply-adds, which still happen in k order.
func mulAdd4(d []float64, a0, a1, a2, a3 float64, b []float64) {
	kern.mulAdd4(d, a0, a1, a2, a3, b[:4*len(d)])
}

// skinnyRows runs every k step of a matmul for each w-wide row of d
// (see routines.skinnyRows4): the rows four at a time through
// kern.skinnyRows4, the last len(d)/w % 4 one at a time.
func skinnyRows(d []float64, w int, a []float64, rowStride, stride int, b []float64, skip bool) {
	rows, steps := len(d)/w, len(b)/w
	if rows == 0 || steps == 0 {
		return
	}
	_ = a[(rows-1)*rowStride+(steps-1)*stride] // the last operand read
	q := rows &^ 3
	kern.skinnyRows4(d[:q*w], w, a, rowStride, stride, b, skip)
	for r := q; r < rows; r++ {
		skinnyRow(d[r*w:(r+1)*w], a[r*rowStride:], stride, b, skip)
	}
}

// skinny reports whether a dst of cols columns takes the skinnyRows path:
// the widths of the low-rank factors the repo actually runs. Odd widths
// and everything from five columns on measured no better there than on the
// general path, so they stay on it.
func skinny(cols int) bool { return cols == 2 || cols == 4 }

// FrobeniusNorm returns sqrt(Σ x²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// AbsMax returns max |x| over all elements, or 0 for an empty matrix.
func (m *Matrix) AbsMax() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Sum returns Σ x.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean, or 0 for an empty matrix.
func (m *Matrix) Mean() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.Data))
}

// Equal reports whether m and o have identical shape and elements within
// tol (absolute). A NaN matches only a NaN at the same index.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		w := o.Data[i]
		if math.IsNaN(v) || math.IsNaN(w) {
			if !math.IsNaN(v) || !math.IsNaN(w) {
				return false
			}
		} else if math.Abs(v-w) > tol {
			return false
		}
	}
	return true
}

// String renders a small matrix for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// Dot returns the vector dot product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

// CosineSimilarity returns a·b / (‖a‖‖b‖), or 0 when either vector is zero.
// Fig. 11 of the paper uses this to show compression errors are independent
// of activation differences.
func CosineSimilarity(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}
