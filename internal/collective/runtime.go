package collective

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Runtime owns the per-rank worker goroutines that execute collectives
// and the workspace pool their reduction scratch comes from. Workers are
// created once and live until Close, so a steady-state collective spawns
// no goroutines and performs no allocations — the property the
// BenchmarkAllReduce* benchmarks pin at 0 allocs/op.
type Runtime struct {
	topo Topology
	tr   Transport
	pool *tensor.Pool

	// remote makes the collectives ship chunk and payload data inside
	// their messages instead of reading peer buffers through shared
	// memory (the transport's Remote()).
	remote bool
	// local[r] reports whether rank r executes in this process. All true
	// over an in-process transport; exactly one true over a remote one
	// (the transport's LocalRank). Workers exist — and group work is
	// dispatched — only for local ranks.
	local []bool

	work      []chan task
	closeOnce sync.Once

	// Sparse-reduction accounting: how many compressed all-reduces ran the
	// merge-union path vs fell back to a dense scatter-add because the
	// payload union crossed the density cap (see SparseReduceCapFraction).
	spOps       atomic.Int64
	spFallbacks atomic.Int64

	// Executed-run tracing (nil when disabled — every record call is then
	// an inlined nil-receiver no-op, pinned at 0 allocs). Worker rank r
	// records its exec spans on track recWorkerBase+r; finished ops record
	// one issue→finish span per operation on track recOpsBase+class.
	rec           *obs.Recorder
	recWorkerBase int
	recOpsBase    int
}

// SetRecorder attaches an executed-run span recorder. Worker exec spans
// land on tracks [workerBase, workerBase+World); per-operation spans on
// tracks opsBase+Class. Must be called before any collective is issued;
// pass nil to disable (the default).
func (r *Runtime) SetRecorder(rec *obs.Recorder, workerBase, opsBase int) {
	r.rec = rec
	r.recWorkerBase = workerBase
	r.recOpsBase = opsBase
}

// linkOf maps a link class to its trace-span link ordinal. The two enums
// deliberately share values; this is the single conversion point (with a
// compile-time guard in obs_guard_test.go).
func linkOf(c Class) obs.Link { return obs.Link(c) }

// SparseReduceStats counts how AllReduceCompressed operations reduced
// sparse-native payloads: SparseOps ran the merge-union path,
// DenseFallbacks crossed the density cap and reduced densely. Ops on
// non-sparse families (PowerSGD, quantizers) appear in neither.
type SparseReduceStats struct {
	SparseOps      int64
	DenseFallbacks int64
}

// SparseReduceStats snapshots the sparse-reduction counters.
func (r *Runtime) SparseReduceStats() SparseReduceStats {
	return SparseReduceStats{
		SparseOps:      r.spOps.Load(),
		DenseFallbacks: r.spFallbacks.Load(),
	}
}

// task is one rank's share of an issued group collective.
type task struct {
	p      *Pending
	member int
}

// workQueueDepth sizes each rank's op queue. The depth only throttles
// how far ahead an issuing goroutine can run — correctness is
// independent of it (workers drain their queues in FIFO order, and ops
// are fully enqueued before the next one starts) — but it should absorb
// a full stage's bucketed DP-sync issue burst so overlapped issue never
// blocks on the queue in practice.
const workQueueDepth = 32

// NewRuntime starts one worker per local rank of topo: every rank over
// an in-process transport, exactly one over a remote transport (which
// must expose its LocalRank; the other ranks live in other processes
// running the same code). A nil transport gets an in-process
// MemTransport sized to the topology; a nil pool gets a fresh
// tensor.Pool (the trainer passes its own so all layers recycle the same
// buffers). Call Close to release the workers.
func NewRuntime(topo Topology, tr Transport, pool *tensor.Pool) *Runtime {
	if tr == nil {
		tr = NewMemTransport(topo.World())
	}
	if pool == nil {
		pool = tensor.NewPool()
	}
	world := topo.World()
	r := &Runtime{topo: topo, tr: tr, pool: pool, work: make([]chan task, world)}
	r.local = make([]bool, world)
	if tr.Remote() {
		r.remote = true
		lr, ok := tr.(interface{ LocalRank() int })
		if !ok {
			panic("collective: remote transport does not expose LocalRank")
		}
		rank := lr.LocalRank()
		if rank < 0 || rank >= world {
			panic(fmt.Sprintf("collective: transport local rank %d outside world %d", rank, world))
		}
		r.local[rank] = true
		if p, ok := tr.(interface{ SetDecodePool(*tensor.Pool) }); ok {
			p.SetDecodePool(pool)
		}
	} else {
		for i := range r.local {
			r.local[i] = true
		}
	}
	for i := range r.work {
		if !r.local[i] {
			continue
		}
		r.work[i] = make(chan task, workQueueDepth)
		go r.worker(i)
	}
	return r
}

// LocalRank reports whether rank r executes in this process.
func (r *Runtime) LocalRank(rank int) bool { return r.local[rank] }

func (r *Runtime) worker(rank int) {
	for tk := range r.work[rank] {
		if rec := r.rec; rec != nil {
			g := tk.p.g
			start := rec.Now()
			tk.p.exec(tk.member)
			rec.Record(r.recWorkerBase+rank, obs.PhaseCollExec, linkOf(g.class),
				start, 0, g.tag, -1, -1)
		} else {
			tk.p.exec(tk.member)
		}
		tk.p.wg.Done()
	}
}

// Close stops every rank worker. Collectives must not be in flight or
// issued afterwards. Idempotent.
func (r *Runtime) Close() {
	r.closeOnce.Do(func() {
		for _, ch := range r.work {
			if ch != nil {
				close(ch)
			}
		}
	})
}

// Topology returns the rank grid this runtime was built for.
func (r *Runtime) Topology() Topology { return r.topo }

// Transport returns the underlying transport (for traffic snapshots).
func (r *Runtime) Transport() Transport { return r.tr }

// Stats snapshots the transport's per-class traffic.
func (r *Runtime) Stats() Stats { return r.tr.Stats() }

// Pool returns the runtime's workspace pool.
func (r *Runtime) Pool() *tensor.Pool { return r.pool }

// NewGroup binds a set of ranks, in ring order, to a link class. The ring
// order is also the deterministic reduction order. Ranks must be distinct
// and inside the runtime's world. Groups over disjoint rank sets may run
// collectives concurrently; groups sharing a rank must not.
func (r *Runtime) NewGroup(class Class, ranks []int) *Group {
	if len(ranks) == 0 {
		panic("collective: empty group")
	}
	seen := make(map[int]bool, len(ranks))
	for _, rk := range ranks {
		if rk < 0 || rk >= r.topo.World() {
			panic(fmt.Sprintf("collective: rank %d outside world %d", rk, r.topo.World()))
		}
		if seen[rk] {
			panic(fmt.Sprintf("collective: duplicate rank %d in group", rk))
		}
		seen[rk] = true
	}
	return &Group{
		rt:    r,
		class: class,
		ranks: append([]int(nil), ranks...),
		tag:   -1,
	}
}
