// Package compress implements the gradient-compression algorithms surveyed
// in §2.3 of the Optimus-CC paper and the PowerSGD low-rank scheme the
// paper adopts (§8), plus the error-feedback machinery that both
// data-parallel compression and the paper's lazy error propagation build
// on.
//
// A Compressor turns a dense gradient matrix into a compact Payload whose
// WireBytes is what travels over the interconnect; Decompress reconstructs
// the (lossy) dense matrix. CompressionError (original − reconstruction)
// is what error feedback and lazy error propagation carry forward.
//
// # Zero-allocation contract
//
// Compressors are workspace-reusing: Compress writes its payload into
// per-shape buffers owned by the compressor instance, and DecompressInto
// reconstructs into a caller-provided destination. On steady state (same
// shapes every call, which is exactly the training loop's behaviour) no
// compressor allocates. The costs of this contract:
//
//   - A Payload is only valid until the next Compress call of the same
//     shape on the same instance. Consume it (ship it, measure it,
//     decompress it) before compressing again.
//   - Compressor instances are NOT safe for concurrent use. Give each
//     communication channel its own instance, as the paper does with
//     private PowerSVD variables per stage boundary.
//
// Workspace matrices are drawn from a tensor.Pool (shared per package by
// default, overridable per instance via SetPool) so compressors that
// handle the same shapes can recycle each other's retired buffers.
package compress

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Payload is a compressed representation of a gradient matrix.
type Payload interface {
	// WireBytes is the number of bytes this payload occupies on the
	// interconnect, assuming the element width the compressor was
	// configured with.
	WireBytes() int64
	// Shape returns the dense shape the payload decompresses to.
	Shape() (rows, cols int)
}

// Compressor is a lossy matrix compressor. Implementations must be
// deterministic given their construction parameters and input.
type Compressor interface {
	// Compress encodes m. The input is not modified. The returned payload
	// reuses per-shape buffers: it is valid until the next Compress call
	// of the same shape on this instance.
	Compress(m *tensor.Matrix) Payload
	// Decompress reconstructs a dense matrix from a payload produced by
	// this compressor. The result is newly allocated; prefer
	// DecompressInto on hot paths.
	Decompress(p Payload) *tensor.Matrix
	// DecompressInto reconstructs into dst, which must have the payload's
	// shape. It writes every element (no stale data survives) and does
	// not allocate.
	DecompressInto(dst *tensor.Matrix, p Payload)
	// Name identifies the algorithm (for experiment tables).
	Name() string
	// Ratio returns the achieved compression ratio (dense bytes / wire
	// bytes) for a rows×cols matrix. >1 means smaller on the wire.
	Ratio(rows, cols int) float64
}

// PoolAware is implemented by compressors whose workspaces come from a
// tensor.Pool. SetPool replaces the pool used for future workspace
// growth; already-held workspaces are unaffected.
type PoolAware interface {
	SetPool(p *tensor.Pool)
}

// sharedPool is the package-default workspace pool.
var sharedPool = tensor.NewPool()

// SharedPool returns the package-default workspace pool that compressors
// draw from unless overridden with SetPool. Exposed so benchmarks and the
// trainer can share one pool across layers.
func SharedPool() *tensor.Pool { return sharedPool }

// poolOrShared resolves a possibly-nil per-instance pool.
func poolOrShared(p *tensor.Pool) *tensor.Pool {
	if p != nil {
		return p
	}
	return sharedPool
}

// mustShape panics unless dst matches the payload shape (shared by all
// DecompressInto implementations).
func mustShape(dst *tensor.Matrix, p Payload, who string) {
	r, c := p.Shape()
	if dst.Rows != r || dst.Cols != c {
		panic(fmt.Sprintf("compress: %s.DecompressInto dst %dx%d want %dx%d", who, dst.Rows, dst.Cols, r, c))
	}
}

// ElemBytes is the assumed dense element width on the wire. The paper's
// experiments communicate fp16 tensors.
const ElemBytes = 2

// DenseBytes returns the uncompressed wire size of a rows×cols matrix.
func DenseBytes(rows, cols int) int64 {
	return int64(rows) * int64(cols) * ElemBytes
}

// CompressionError returns orig − decompress(compress(orig)) given the
// reconstruction; both inputs are unmodified.
func CompressionError(orig, recon *tensor.Matrix) *tensor.Matrix {
	e := orig.Clone()
	e.Sub(recon)
	return e
}

// RelativeError returns ‖orig − recon‖_F / ‖orig‖_F (0 when orig is zero).
// Computed streaming, without materializing the difference. Panics on
// shape mismatch.
func RelativeError(orig, recon *tensor.Matrix) float64 {
	if orig.Rows != recon.Rows || orig.Cols != recon.Cols {
		panic(fmt.Sprintf("compress: RelativeError shape mismatch %dx%d vs %dx%d",
			orig.Rows, orig.Cols, recon.Rows, recon.Cols))
	}
	n := orig.FrobeniusNorm()
	if n == 0 {
		return 0
	}
	var s float64
	rd := recon.Data
	for i, v := range orig.Data {
		d := v - rd[i]
		s += float64(d * d)
	}
	return math.Sqrt(s) / n
}

// maxShapeStates bounds every per-shape state map in this package
// (ErrorFeedback scratch, Identity payload snapshots, Instrumented error
// probes, PowerSGD warm-start state) with one LRU policy: when a map
// exceeds the cap after an insert, entries unused for longer than the
// staleness horizon go first, then least-recently-used entries until the
// cap holds. An evicted shape merely re-faults its workspace on its next
// appearance (for ErrorFeedback this also restarts the residual, for
// PowerSGD the warm start — the same cold-restart semantics).
const maxShapeStates = MaxWarmShapes

// shapeStates is the bounded per-shape state map shared by the
// compressors.
type shapeStates[T any] struct {
	entries map[[2]int]*shapeEntry[T]
	clock   uint64
	// cap bounds len(entries); evictAfter is the staleness horizon in
	// recency-clock ticks (0 disables the staleness sweep).
	cap        int
	evictAfter uint64
}

type shapeEntry[T any] struct {
	val     T
	lastUse uint64
}

func newShapeStates[T any](cap int, evictAfter uint64) shapeStates[T] {
	return shapeStates[T]{
		entries:    make(map[[2]int]*shapeEntry[T]),
		cap:        cap,
		evictAfter: evictAfter,
	}
}

// get returns the state for key, marking it recently used.
func (s *shapeStates[T]) get(key [2]int) (T, bool) {
	e := s.entries[key]
	if e == nil {
		var zero T
		return zero, false
	}
	s.clock++
	e.lastUse = s.clock
	return e.val, true
}

// peek returns the state for key without touching recency (for accessors
// that must not distort the eviction order).
func (s *shapeStates[T]) peek(key [2]int) (T, bool) {
	e := s.entries[key]
	if e == nil {
		var zero T
		return zero, false
	}
	return e.val, true
}

// put inserts key's state as most recently used, then enforces the cap:
// stale entries (unused beyond evictAfter) are dropped first, then
// least-recently-used entries, each passed to onEvict (nil = just drop to
// the GC).
func (s *shapeStates[T]) put(key [2]int, v T, onEvict func(T)) {
	s.clock++
	s.entries[key] = &shapeEntry[T]{val: v, lastUse: s.clock}
	if len(s.entries) <= s.cap {
		return
	}
	if s.evictAfter > 0 {
		for k, e := range s.entries {
			if s.clock-e.lastUse > s.evictAfter {
				if onEvict != nil {
					onEvict(e.val)
				}
				delete(s.entries, k)
			}
		}
	}
	for len(s.entries) > s.cap {
		var oldKey [2]int
		var oldest *shapeEntry[T]
		for k, e := range s.entries {
			if oldest == nil || e.lastUse < oldest.lastUse {
				oldKey, oldest = k, e
			}
		}
		if onEvict != nil {
			onEvict(oldest.val)
		}
		delete(s.entries, oldKey)
	}
}

// each visits every live state.
func (s *shapeStates[T]) each(f func(T)) {
	for _, e := range s.entries {
		f(e.val)
	}
}

// eachKey visits every live state with its shape key (map order; callers
// that need determinism — e.g. checkpoint serialization — sort).
func (s *shapeStates[T]) eachKey(f func(key [2]int, v T)) {
	for k, e := range s.entries {
		f(k, e.val)
	}
}

// size returns the number of live states.
func (s *shapeStates[T]) size() int { return len(s.entries) }

// Identity is the no-compression baseline: the payload is the dense matrix.
// The payload snapshot is kept in a reused per-shape buffer (bounded per
// maxShapeStates).
type Identity struct {
	pool *tensor.Pool
	buf  shapeStates[*densePayload]
}

// NewIdentity returns the pass-through compressor used for baseline runs.
func NewIdentity() *Identity {
	return &Identity{buf: newShapeStates[*densePayload](maxShapeStates, 0)}
}

// SetPool implements PoolAware.
func (c *Identity) SetPool(p *tensor.Pool) { c.pool = p }

type densePayload struct{ m *tensor.Matrix }

func (p *densePayload) WireBytes() int64         { return p.m.SizeBytes(ElemBytes) }
func (p *densePayload) Shape() (int, int)        { return p.m.Rows, p.m.Cols }
func (c *Identity) Name() string                 { return "identity" }
func (c *Identity) Ratio(rows, cols int) float64 { return 1 }

// Compress implements Compressor.
func (c *Identity) Compress(m *tensor.Matrix) Payload {
	key := [2]int{m.Rows, m.Cols}
	pl, ok := c.buf.get(key)
	if !ok {
		pl = &densePayload{m: poolOrShared(c.pool).GetUninit(m.Rows, m.Cols)}
		// An evicted snapshot may still back an outstanding payload, so it
		// is dropped to the GC rather than recycled.
		c.buf.put(key, pl, nil)
	}
	pl.m.CopyFrom(m)
	return pl
}

// Decompress implements Compressor.
func (c *Identity) Decompress(p Payload) *tensor.Matrix {
	r, cl := p.Shape()
	out := tensor.New(r, cl)
	c.DecompressInto(out, p)
	return out
}

// DecompressInto implements Compressor.
func (c *Identity) DecompressInto(dst *tensor.Matrix, p Payload) {
	dp, ok := p.(*densePayload)
	if !ok {
		panic(fmt.Sprintf("compress: Identity.Decompress got %T", p))
	}
	mustShape(dst, p, "Identity")
	dst.CopyFrom(dp.m)
}

var (
	_ Compressor = (*Identity)(nil)
	_ PoolAware  = (*Identity)(nil)
)
