package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary payload codec. Dense matrices and sparse COO views serialize to
// a fixed little-endian layout so a wire transport can ship the exact
// float64 images the in-process path shares by pointer:
//
//	dense:  rows uint32 | cols uint32 | rows·cols × float64 bits
//	sparse: rows uint32 | cols uint32 | nnz uint32 | nnz × index uint32 | nnz × float64 bits
//
// Encoders append to a caller-provided buffer (pooled by the transport)
// and panic on invariant violations, matching the package's programmer-
// error convention. Decoders are the untrusted half: every length, bound,
// and ordering invariant is checked and violations return errors — a
// truncated or corrupt frame must never panic or over-allocate (byte
// lengths are validated before any allocation is sized from them).

// codec limits: shapes must fit the uint32 header fields.
const maxCodecDim = 1 << 31

// EncodedMatrixLen returns the exact byte length AppendMatrix adds.
func EncodedMatrixLen(m *Matrix) int { return 8 + 8*m.NumElements() }

// AppendMatrix appends m's binary image to buf and returns the extended
// slice.
func AppendMatrix(buf []byte, m *Matrix) []byte {
	if m.Rows >= maxCodecDim || m.Cols >= maxCodecDim {
		panic(fmt.Sprintf("tensor: AppendMatrix shape %dx%d exceeds codec limit", m.Rows, m.Cols))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Cols))
	for _, v := range m.Data {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// DecodeMatrix decodes one dense payload from the front of b, returning
// the matrix, the unconsumed remainder, and any format error. alloc
// provides the destination for a validated shape (a pool hook); nil
// falls back to New. The returned matrix's Data is fully overwritten.
func DecodeMatrix(b []byte, alloc func(rows, cols int) *Matrix) (*Matrix, []byte, error) {
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("tensor: dense header truncated: %d bytes", len(b))
	}
	rows := int(binary.LittleEndian.Uint32(b))
	cols := int(binary.LittleEndian.Uint32(b[4:]))
	if rows >= maxCodecDim || cols >= maxCodecDim {
		return nil, nil, fmt.Errorf("tensor: dense shape %dx%d exceeds codec limit", rows, cols)
	}
	b = b[8:]
	// Compared in elements, not bytes: rows·cols can reach 2⁶², where
	// 8·n wraps and a crafted shape would pass a byte-length check.
	n := uint64(rows) * uint64(cols)
	if n > uint64(len(b))/8 {
		return nil, nil, fmt.Errorf("tensor: dense %dx%d body truncated: have %d bytes for %d elements", rows, cols, len(b), n)
	}
	if alloc == nil {
		alloc = New
	}
	m := alloc(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return m, b[8*n:], nil
}

// EncodedSparseLen returns the exact byte length AppendSparse adds.
func EncodedSparseLen(s *Sparse) int { return 12 + 12*s.NNZ() }

// AppendSparse appends s's binary image to buf and returns the extended
// slice.
func AppendSparse(buf []byte, s *Sparse) []byte {
	if s.Rows >= maxCodecDim || s.Cols >= maxCodecDim || s.Rows*s.Cols >= maxCodecDim {
		panic(fmt.Sprintf("tensor: AppendSparse shape %dx%d exceeds codec limit", s.Rows, s.Cols))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Cols))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.NNZ()))
	for _, fi := range s.Indices {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(fi))
	}
	for _, v := range s.Values {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// DecodeSparse decodes one sparse payload from the front of b, returning
// the sparse view, the unconsumed remainder, and any format error. alloc
// provides the destination for a validated shape (a pool hook, handed
// the shape only — nnz is applied via Reuse); nil allocates fresh. The
// decoder re-validates the Sparse invariant (indices strictly ascending,
// in range), so a corrupt frame cannot smuggle an invalid view into the
// O(nnz) kernels.
func DecodeSparse(b []byte, alloc func(rows, cols int) *Sparse) (*Sparse, []byte, error) {
	if len(b) < 12 {
		return nil, nil, fmt.Errorf("tensor: sparse header truncated: %d bytes", len(b))
	}
	rows := int(binary.LittleEndian.Uint32(b))
	cols := int(binary.LittleEndian.Uint32(b[4:]))
	nnz := int(binary.LittleEndian.Uint32(b[8:]))
	if rows >= maxCodecDim || cols >= maxCodecDim || uint64(rows)*uint64(cols) >= maxCodecDim {
		return nil, nil, fmt.Errorf("tensor: sparse shape %dx%d exceeds codec limit", rows, cols)
	}
	b = b[12:]
	elems := uint64(rows) * uint64(cols)
	if uint64(nnz) > elems {
		return nil, nil, fmt.Errorf("tensor: sparse %dx%d nnz %d exceeds %d elements", rows, cols, nnz, elems)
	}
	if need := 12 * uint64(nnz); uint64(len(b)) < need {
		return nil, nil, fmt.Errorf("tensor: sparse %dx%d body truncated: have %d of %d bytes", rows, cols, len(b), need)
	}
	var s *Sparse
	if alloc != nil {
		s = alloc(rows, cols)
	} else {
		s = NewSparse(rows, cols, nnz)
	}
	s.Reuse(nnz, rows, cols)
	prev := -1
	for i := range s.Indices {
		fi := int(binary.LittleEndian.Uint32(b[4*i:]))
		if fi <= prev || uint64(fi) >= elems {
			return nil, nil, fmt.Errorf("tensor: sparse index %d at position %d violates ascending-bounds invariant (prev %d, %d elements)", fi, i, prev, elems)
		}
		s.Indices[i] = fi
		prev = fi
	}
	vals := b[4*nnz:]
	for i := range s.Values {
		s.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:]))
	}
	return s, b[12*nnz:], nil
}
