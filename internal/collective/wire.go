package collective

import (
	"encoding/binary"
	"fmt"

	"repro/internal/tensor"
)

// Wire format (version 2). A remote transport ships each Msg as one
// length-prefixed frame:
//
//	uint32 LE  body length
//	body:
//	  byte     version (wireVersion)
//	  byte     link class
//	  byte     kind (ring step | point-to-point)
//	  byte     flags (pooled marker)
//	  uint32   from rank
//	  uint32   to rank
//	  uint64   accounted bytes (Msg.Bytes — the modelled fp16 wire size)
//	  uint16   part count
//	  parts    part count × (byte part kind | image):
//	             dense    rows, cols, float64 bits      (tensor codec)
//	             sparse   rows, cols, nnz, COO image    (tensor codec)
//	             lowrank  dense image of P (rows×r), then of Q (cols×r)
//
// One message is one frame and one write however many payloads it
// batches: a compressed all-gather step ships every compressed channel
// of its bucket as one part each. Every part travels in its compact
// exact form — a PowerSGD payload as its factor pair, which the receiver
// multiplies back out with the sender's own kernel, so the float64 bits
// of the reconstruction are the sender's at r·(rows+cols) elements
// instead of rows·cols.
//
// Msg.Bytes rides the frame unchanged so a remote run's per-class Stats
// stay bit-equal to the in-memory oracle's: the accounting models the
// paper's fp16 links while the parts carry the reproduction's exact
// float64 images (frame bytes are tallied separately by SocketTransport).
//
// Encoding appends to caller-provided (pooled) buffers and never
// allocates beyond them. Decoding treats the input as untrusted: the
// part count, every shape, factor-rank agreement and the total length
// are validated before anything is sized from them, and violations
// return errors, never panics — the fuzz tests pin this.

const (
	wireVersion = 2

	// frameHeaderLen is the body length before any part.
	frameHeaderLen = 22

	// maxFrameBody bounds a frame body so a corrupt length prefix cannot
	// force a giant read buffer.
	maxFrameBody = 1 << 30

	// maxFactorElems bounds the reconstruction a factor pair may expand
	// to on the receiver — the one size a frame implies without carrying
	// that many bytes — at the largest dense image a frame could carry.
	maxFactorElems = maxFrameBody / 8

	// minPartLen is the shortest encoded part (kind byte + dense header),
	// which bounds a believable part count by the bytes present.
	minPartLen = 9
)

// frameKind distinguishes the two transport planes within one stream.
type frameKind byte

const (
	frameRing frameKind = 0
	frameP2P  frameKind = 1
)

// flagPooled marks the frame's dense parts as pool-borrowed.
const flagPooled = 1 << 0

// Part kinds.
const (
	partDense   = 1
	partSparse  = 2
	partLowRank = 3
)

// frameHeader is the decoded routing half of a frame.
type frameHeader struct {
	class Class
	kind  frameKind
	from  int
	to    int
}

// partKind classifies p, panicking on the sender-side invariant that a
// part holds exactly one form.
func partKind(p Part) byte {
	switch {
	case p.Payload != nil && p.Sparse == nil && p.P == nil && p.Q == nil:
		return partDense
	case p.Sparse != nil && p.Payload == nil && p.P == nil && p.Q == nil:
		return partSparse
	case p.P != nil && p.Q != nil && p.Payload == nil && p.Sparse == nil:
		return partLowRank
	}
	panic("collective: message part must carry exactly one payload form")
}

// appendFrame appends the complete frame (length prefix included) for m
// to buf and returns the extended slice.
func appendFrame(buf []byte, c Class, kind frameKind, from, to int, m Msg) []byte {
	n := m.NumParts()
	if n == 0 && len(m.More) > 0 {
		panic("collective: message batch without a first part")
	}
	if n > 0xFFFF {
		panic(fmt.Sprintf("collective: %d message parts exceed the frame limit", n))
	}
	var flags byte
	if m.Pooled {
		flags |= flagPooled
	}
	// The length prefix is patched in once the body has been appended.
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, wireVersion, byte(c), byte(kind), flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(from))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(to))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Bytes))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(n))
	for i := 0; i < n; i++ {
		p := m.PartAt(i)
		k := partKind(p)
		buf = append(buf, k)
		switch k {
		case partDense:
			buf = tensor.AppendMatrix(buf, p.Payload)
		case partSparse:
			buf = tensor.AppendSparse(buf, p.Sparse)
		case partLowRank:
			buf = tensor.AppendMatrix(buf, p.P)
			buf = tensor.AppendMatrix(buf, p.Q)
		}
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// decodeFrameBody decodes one frame body (the bytes after the length
// prefix). world bounds the rank fields; pool, when non-nil, supplies
// the decoded payload tensors (dense parts of pooled frames, sparse
// parts and factor pairs — dense parts of non-pooled frames always
// decode into fresh allocations, because the receiver may retain them
// indefinitely, as a pipeline stage does its forward activations).
func decodeFrameBody(body []byte, world int, pool *tensor.Pool) (frameHeader, Msg, error) {
	var h frameHeader
	var m Msg
	if len(body) < frameHeaderLen {
		return h, m, fmt.Errorf("collective: frame body truncated: %d bytes", len(body))
	}
	if v := body[0]; v != wireVersion {
		return h, m, fmt.Errorf("collective: frame version %d, want %d", v, wireVersion)
	}
	if c := body[1]; c >= byte(numClasses) {
		return h, m, fmt.Errorf("collective: frame class %d out of range", c)
	}
	if k := body[2]; k > byte(frameP2P) {
		return h, m, fmt.Errorf("collective: frame kind %d out of range", k)
	}
	flags := body[3]
	if flags&^flagPooled != 0 {
		return h, m, fmt.Errorf("collective: frame flags %#x out of range", flags)
	}
	from := int(binary.LittleEndian.Uint32(body[4:]))
	to := int(binary.LittleEndian.Uint32(body[8:]))
	if from < 0 || from >= world || to < 0 || to >= world {
		return h, m, fmt.Errorf("collective: frame rank pair (%d,%d) outside world %d", from, to, world)
	}
	h = frameHeader{class: Class(body[1]), kind: frameKind(body[2]), from: from, to: to}
	m.Bytes = int64(binary.LittleEndian.Uint64(body[12:]))
	m.Pooled = flags&flagPooled != 0
	n := int(binary.LittleEndian.Uint16(body[20:]))
	rest := body[frameHeaderLen:]
	if n > len(rest)/minPartLen {
		return h, Msg{}, fmt.Errorf("collective: frame claims %d parts in %d bytes", n, len(rest))
	}
	if m.Pooled && n == 0 {
		return h, Msg{}, fmt.Errorf("collective: frame pooled flag without payload")
	}
	if n > 1 {
		m.More = make([]Part, n-1)
	}
	for i := 0; i < n; i++ {
		p, tail, err := decodePart(rest, m.Pooled, pool)
		if err != nil {
			return h, Msg{}, fmt.Errorf("collective: frame part %d of %d: %w", i, n, err)
		}
		rest = tail
		if i == 0 {
			m.Part = p
		} else {
			m.More[i-1] = p
		}
	}
	if len(rest) != 0 {
		return h, Msg{}, fmt.Errorf("collective: frame has %d trailing bytes", len(rest))
	}
	return h, m, nil
}

// decodePart decodes one part from the front of b.
func decodePart(b []byte, pooled bool, pool *tensor.Pool) (Part, []byte, error) {
	var p Part
	if len(b) < minPartLen {
		return p, nil, fmt.Errorf("truncated: %d bytes", len(b))
	}
	var getDense func(rows, cols int) *tensor.Matrix
	var getSparse func(rows, cols int) *tensor.Sparse
	if pool != nil {
		getDense, getSparse = pool.GetUninit, pool.GetSparse
	}
	kind, b := b[0], b[1:]
	var err error
	switch kind {
	case partDense:
		if !pooled {
			getDense = nil
		}
		p.Payload, b, err = tensor.DecodeMatrix(b, getDense)
	case partSparse:
		p.Sparse, b, err = tensor.DecodeSparse(b, getSparse)
	case partLowRank:
		// Each factor is sized from bytes actually present; what the pair
		// implies beyond them — the reconstruction — is bounded here,
		// before any receiver can size a buffer from it.
		if p.P, b, err = tensor.DecodeMatrix(b, getDense); err != nil {
			break
		}
		if p.Q, b, err = tensor.DecodeMatrix(b, getDense); err != nil {
			break
		}
		if p.P.Cols != p.Q.Cols || p.P.Cols == 0 {
			err = fmt.Errorf("factor ranks disagree: P %dx%d, Q %dx%d", p.P.Rows, p.P.Cols, p.Q.Rows, p.Q.Cols)
		} else if uint64(p.P.Rows)*uint64(p.Q.Rows) > maxFactorElems {
			err = fmt.Errorf("factors of a %dx%d tensor expand past the %d-element limit", p.P.Rows, p.Q.Rows, maxFactorElems)
		}
	default:
		return p, nil, fmt.Errorf("kind %d out of range", kind)
	}
	if err != nil {
		return Part{}, nil, err
	}
	return p, b, nil
}
