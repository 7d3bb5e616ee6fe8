package collective

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Group is a set of ranks in ring order bound to a link class. All of its
// collectives operate on one buffer per member rank (bufs[i] belongs to
// ranks[i]) — the in-process stand-in for each rank's device memory.
//
// The unit of communication is the bucket: AllReduceBucket reduces a list
// of tensors (Channels) in one operation — one ring over the dense ones
// laid end to end, one all-gather of every member's compressed payloads —
// and AllReduce/AllReduceCompressed are its bucket-of-one forms, executing
// the same schedule.
//
// Collectives come in two flavours: the blocking methods and their Async
// variants, which issue the operation and return a *Pending handle
// immediately. The blocking methods are issue+wait wrappers over the
// async ones, so both paths execute the identical deterministic schedule.
//
// A group may have several operations in flight at once (issued from one
// goroutine, so each rank's op queue sees them in issue order); their
// per-op descriptors are recycled through a free list, so the steady
// state allocates nothing.
type Group struct {
	rt    *Runtime
	class Class
	ranks []int

	// tag labels this group's trace spans (the trainer tags each DP group
	// with its stage index); −1 means untagged.
	tag int

	// denseReduce forces compressed channels to densify sparse payloads
	// and reduce through the dense reconstruction path even for
	// sparse-native families — the oracle knob the sparse equivalence
	// tests set.
	denseReduce bool

	// free recycles op descriptors between issues. Pending handles are
	// returned here by Wait; issue and wait may run on different
	// goroutines, hence the lock.
	mu   sync.Mutex
	free []*Pending
}

// SetTag labels the group's trace spans with a stage index (−1 clears).
// Must not be called while operations are in flight.
func (g *Group) SetTag(tag int) { g.tag = tag }

// Channel is one tensor of a bucket all-reduce: Bufs[i] is member i's
// buffer (all of one shape) and EFs, when non-nil, member i's private
// error-feedback compressor — the channel then reduces lossily, through
// the compressed payloads, and otherwise exactly. A compressor serves
// one channel of a bucket only (its payload scratch is reused by its
// next same-shape compression).
type Channel struct {
	Bufs []*tensor.Matrix
	EFs  []*compress.ErrorFeedback
}

type opKind int

const (
	opAllReduce opKind = iota
	opBroadcast
)

// Pending is one issued collective operation. Wait blocks until every
// member rank has finished its share and then recycles the descriptor:
// a handle is dead after Wait returns, and Wait must be called exactly
// once per issued operation (the blocking wrappers do so internally).
//
// The descriptor is written by the issuing goroutine and read by the
// rank workers after they receive their task — the op-queue channel
// receive is the happens-before edge, exactly as for the ring's step
// tokens.
type Pending struct {
	g     *Group
	kind  opKind
	chans []Channel
	one   [1]Channel // backs chans for the single-tensor forms
	scale float64
	root  int
	// opBytes is the dense wire size of one broadcast hop.
	opBytes int64

	// The dense ring's layout. dense lists the bucket's dense channels
	// (indices into chans, bucket order); laid end to end they form one
	// virtual vector in which dense channel i starts at element cum[i],
	// and offs cuts its cum[len(dense)] elements into D balanced chunks:
	// chunk c covers [offs[c], offs[c+1]).
	dense []int
	cum   []int
	offs  []int

	// The compressed all-gather's layout. comp lists the compressed
	// channels (indices into chans, bucket order); sparse[k] marks those
	// whose every compressor is sparse-native (and the group's densified
	// oracle knob is off), which ship and reduce index/value payloads
	// instead of dense reconstructions. slots[k·D+j] is member j's
	// contribution to compressed channel k — a pooled reconstruction
	// (Payload) or sparse copy — written by member j in memory, by the
	// local member as batches arrive over a wire, read by every member
	// after the gather (in memory, over that member's chunk only), and
	// returned to the pool by the op's last member.
	comp   []int
	sparse []bool
	slots  []Part
	// batch is the local member's outgoing payload list and spent the
	// factor pairs received and already multiplied out (remote only —
	// one local member, so neither needs a per-member copy).
	batch []Part
	spent []*tensor.Matrix

	wg sync.WaitGroup

	// issueNs is the dispatch timestamp on the recorder's clock (only
	// stamped when a recorder is attached): the op's trace span runs
	// issue→last-member-finish, so queueing shows up as span length.
	issueNs int64

	// remaining counts member ranks still executing (Done polls it).
	remaining atomic.Int32
	// wire tallies the bytes this operation actually put on the
	// transport, summed over every member's sends — the executed
	// per-operation volume the bucket crosscheck tests reconcile
	// against plan and simulator predictions.
	wire atomic.Int64
}

// Size returns the number of member ranks.
func (g *Group) Size() int { return len(g.ranks) }

// Ranks returns the member ranks in ring (and reduction) order.
func (g *Group) Ranks() []int { return append([]int(nil), g.ranks...) }

// Class returns the link class the group's traffic is accounted on.
func (g *Group) Class() Class { return g.class }

// AllReduceBucket sets every buffer of every channel to scale·Σ over the
// members, element-wise — scale = 1/D is the data-parallel average — as
// one collective operation:
//
//   - every member compresses each compressed channel through its own
//     error-feedback compressor, in bucket order (residuals carry across
//     calls, §2.3);
//   - the dense channels, laid end to end, ride one Thakur ring —
//     reduce-scatter then all-gather over D chunks of the concatenation,
//     2(D−1) steps, aggregate volume 2·V·(D−1) for V dense bytes;
//   - every member's whole payload batch rides one ring all-gather (each
//     step forwards the batch received on the previous one, D−1 steps,
//     aggregate (D−1)·D·w for a w-byte batch), after which each
//     channel's D payloads are folded: in process every member folds
//     its 1/D chunk of the channel and writes it into all D buffers (see
//     fold), over a wire the local member folds the whole channel into
//     its own buffer.
//
// Every reduction applies in flat ring order, so each channel's result
// is bit-identical to reducing it on its own and to the serial reference
// sum at any rank count (see the package comment); only the message and
// step counts depend on how channels are bucketed — D·2(D−1) + D(D−1)
// messages and 2(D−1) + (D−1) steps per bucket, each term present when
// the bucket has a channel of that kind.
func (g *Group) AllReduceBucket(chans []Channel, scale float64) {
	g.AllReduceBucketAsync(chans, scale).Wait()
}

// AllReduceBucketAsync issues AllReduceBucket and returns immediately.
// The channel list, buffers and compressors belong to the operation
// until the returned handle's Wait returns.
func (g *Group) AllReduceBucketAsync(chans []Channel, scale float64) *Pending {
	return g.issueAllReduce(g.getOp(), chans, scale)
}

// AllReduce is AllReduceBucket over the single dense tensor bufs: scale
// = 1/D is the data-parallel average, scale = 1 the §6 embedding sum.
func (g *Group) AllReduce(bufs []*tensor.Matrix, scale float64) {
	g.AllReduceAsync(bufs, scale).Wait()
}

// AllReduceAsync issues AllReduce and returns immediately. The buffers
// must not be touched until the returned handle's Wait returns.
func (g *Group) AllReduceAsync(bufs []*tensor.Matrix, scale float64) *Pending {
	p := g.getOp()
	p.one[0] = Channel{Bufs: bufs}
	return g.issueAllReduce(p, p.one[:], scale)
}

// AllReduceCompressed is AllReduceBucket over the single compressed
// tensor bufs: each rank compresses its own buffer through its private
// error-feedback compressor (efs[i] belongs to ranks[i]), the payloads
// ride the ring all-gather, and the reconstructions are reduced in flat
// ring order into every rank's buffer. The result matches the serial
// per-group compress-then-average semantics bit for bit.
func (g *Group) AllReduceCompressed(bufs []*tensor.Matrix, efs []*compress.ErrorFeedback, scale float64) {
	g.AllReduceCompressedAsync(bufs, efs, scale).Wait()
}

// AllReduceCompressedAsync issues AllReduceCompressed and returns
// immediately. Buffers and compressors belong to the operation until the
// returned handle's Wait returns.
func (g *Group) AllReduceCompressedAsync(bufs []*tensor.Matrix, efs []*compress.ErrorFeedback, scale float64) *Pending {
	if len(efs) != len(g.ranks) {
		panic(fmt.Sprintf("collective: %d compressors for %d ranks", len(efs), len(g.ranks)))
	}
	p := g.getOp()
	p.one[0] = Channel{Bufs: bufs, EFs: efs}
	return g.issueAllReduce(p, p.one[:], scale)
}

// issueAllReduce lays the bucket out on p and dispatches it.
func (g *Group) issueAllReduce(p *Pending, chans []Channel, scale float64) *Pending {
	d := len(g.ranks)
	p.kind = opAllReduce
	p.chans = chans
	p.scale = scale
	p.wire.Store(0)
	p.layout()
	if d == 1 {
		p.runAlone()
		return p
	}
	steps := 0
	if len(p.dense) > 0 {
		steps += 2 * (d - 1)
	}
	if len(p.comp) > 0 {
		steps += d - 1
	}
	g.accountSteps(steps)
	p.dispatch()
	return p
}

// Broadcast copies the root member's buffer into every other member's
// buffer over a ring pipeline: D−1 messages of the full volume, D−1
// steps. root indexes the member (position in ring order), not the global
// rank.
func (g *Group) Broadcast(bufs []*tensor.Matrix, root int) {
	g.BroadcastAsync(bufs, root).Wait()
}

// BroadcastAsync issues Broadcast and returns immediately.
func (g *Group) BroadcastAsync(bufs []*tensor.Matrix, root int) *Pending {
	if root < 0 || root >= len(g.ranks) {
		panic(fmt.Sprintf("collective: broadcast root %d outside group of %d", root, len(g.ranks)))
	}
	rows, cols := g.checkBufs(bufs)
	p := g.getOp()
	p.kind = opBroadcast
	p.one[0] = Channel{Bufs: bufs}
	p.chans = p.one[:]
	p.wire.Store(0)
	p.root = root
	p.opBytes = int64(rows*cols) * compress.ElemBytes
	if len(g.ranks) == 1 {
		return p
	}
	g.accountSteps(len(g.ranks) - 1)
	p.dispatch()
	return p
}

// accountSteps accounts an operation's synchronized steps exactly once
// per operation across the whole grid: steps are a per-op (not per-send)
// quantity, so in a process-per-rank run only the process owning the
// group's first member books them — the aggregate over processes then
// equals the in-process count.
func (g *Group) accountSteps(n int) {
	if g.rt.local[g.ranks[0]] {
		g.rt.tr.AddSteps(g.class, n)
	}
}

// getOp pops a recycled descriptor (or builds the group's next one).
func (g *Group) getOp() *Pending {
	g.mu.Lock()
	if n := len(g.free); n > 0 {
		p := g.free[n-1]
		g.free = g.free[:n-1]
		g.mu.Unlock()
		return p
	}
	g.mu.Unlock()
	return &Pending{g: g, offs: make([]int, len(g.ranks)+1)}
}

// putOp recycles a finished descriptor.
func (g *Group) putOp(p *Pending) {
	p.chans = nil
	p.one[0] = Channel{}
	g.mu.Lock()
	g.free = append(g.free, p)
	g.mu.Unlock()
}

// checkBufs validates one tensor's member buffers — one per rank, all of
// one shape — and returns that shape.
func (g *Group) checkBufs(bufs []*tensor.Matrix) (rows, cols int) {
	if len(bufs) != len(g.ranks) {
		panic(fmt.Sprintf("collective: %d buffers for %d ranks", len(bufs), len(g.ranks)))
	}
	rows, cols = bufs[0].Shape()
	for _, b := range bufs[1:] {
		if r, c := b.Shape(); r != rows || c != cols {
			panic(fmt.Sprintf("collective: buffer shape %dx%d != %dx%d", r, c, rows, cols))
		}
	}
	return rows, cols
}

// layout validates the bucket and derives the op's dense-ring and
// compressed-gather layouts. The descriptor's slices keep their capacity
// across recycles, so a group whose bucket shapes repeat stops
// allocating after its first few operations.
func (p *Pending) layout() {
	g := p.g
	d := len(g.ranks)
	if len(p.chans) == 0 {
		panic("collective: empty bucket")
	}
	p.dense, p.cum, p.comp, p.sparse = p.dense[:0], append(p.cum[:0], 0), p.comp[:0], p.sparse[:0]
	for ci := range p.chans {
		ch := &p.chans[ci]
		r0, c0 := g.checkBufs(ch.Bufs)
		if ch.EFs == nil {
			p.dense = append(p.dense, ci)
			p.cum = append(p.cum, p.cum[len(p.cum)-1]+r0*c0)
			continue
		}
		if len(ch.EFs) != d {
			panic(fmt.Sprintf("collective: %d compressors for %d ranks", len(ch.EFs), d))
		}
		// A channel must pick one reduction representation: every member
		// reads every member's payload slot, so a mixed sparse/dense
		// channel would read unset slots. Sparse-native only when every
		// compressor is.
		sparse := !g.denseReduce
		for _, ef := range ch.EFs {
			sparse = sparse && ef.SparseNative()
		}
		p.comp = append(p.comp, ci)
		p.sparse = append(p.sparse, sparse)
	}

	n := p.cum[len(p.dense)]
	for c := 0; c < d; c++ {
		p.offs[c], p.offs[c+1] = chunk(n, d, c)
	}

	p.slots = resize(p.slots, len(p.comp)*d)
	if g.rt.remote {
		p.batch = resize(p.batch, len(p.comp))
	}
}

// chunk returns chunk c, [lo, hi), of the balanced d-way partition of n
// elements — the dense ring's chunks of the concatenation and each
// member's share of a compressed channel's fold. Chunk sizes differ by at
// most one element, the larger ones first (odd sizes and fewer elements
// than members — empty chunks — are fine).
func chunk(n, d, c int) (lo, hi int) {
	base, rem := n/d, n%d
	lo = c*base + min(c, rem)
	hi = lo + base
	if c < rem {
		hi++
	}
	return lo, hi
}

// resize returns s with length n, reusing its storage when it fits.
// Reused elements keep what they held: slots are cleared as each op
// finishes, batch entries overwritten before they are sent.
func resize(s []Part, n int) []Part {
	if cap(s) < n {
		return make([]Part, n)
	}
	return s[:n]
}

// dispatch hands one task per local member to the rank workers. Tasks
// enter each rank's op queue in issue order, so multiple in-flight
// operations of one group execute in the same order on every member —
// the property that keeps the flat-rank-order reduction deterministic
// with overlap. In a process-per-rank run the non-local members execute
// in their own processes (every process issues the same op sequence);
// here they simply have no worker, so Wait only tracks the local share.
// An op with no local member completes immediately as a no-op.
func (p *Pending) dispatch() {
	g := p.g
	p.issueNs = g.rt.rec.Now()
	local := 0
	for _, r := range g.ranks {
		if g.rt.work[r] != nil {
			local++
		}
	}
	p.wg.Add(local)
	p.remaining.Store(int32(local))
	for m, r := range g.ranks {
		if ch := g.rt.work[r]; ch != nil {
			ch <- task{p: p, member: m}
		}
	}
}

// Wait blocks until the operation has finished on every member rank,
// then recycles the descriptor. The handle must not be used afterwards.
func (p *Pending) Wait() { p.WaitBytes() }

// WaitBytes is Wait, additionally returning the operation's executed
// wire volume (see WireBytes) — the last moment it can be read, since
// waiting recycles the descriptor.
func (p *Pending) WaitBytes() int64 {
	p.wg.Wait()
	n := p.wire.Load()
	p.g.putOp(p)
	return n
}

// Done reports whether the operation has finished on every member rank
// (without blocking and without consuming the handle — Wait must still
// be called).
func (p *Pending) Done() bool { return p.remaining.Load() == 0 }

// WireBytes returns the bytes this operation has put on the transport so
// far, summed over every member's sends: per bucket, 2V·(D−1) for V
// bytes of dense channels plus (D−1)·Σ payload batches for the
// compressed ones; (D−1)·V for a broadcast. Only stable once Done
// reports true; callers that need the executed volume must read it
// between Done and Wait (or from the value Wait leaves behind — see the
// trainer's bucket log).
func (p *Pending) WireBytes() int64 { return p.wire.Load() }

// exec runs member m's share of the operation (called on rank workers).
func (p *Pending) exec(m int) {
	ph := obs.PhaseBroadcast
	if p.kind == opBroadcast {
		p.runBroadcast(m)
	} else {
		p.runAllReduce(m)
		ph = obs.PhaseAllReduce
		if len(p.comp) > 0 {
			ph = obs.PhaseAllReduceCompressed
		}
	}
	if p.remaining.Add(-1) != 0 {
		return
	}
	// Last member out: record the operation's issue→finish span — its
	// Bytes field carries the op's full executed wire volume, so the
	// per-link-class span sums reconcile exactly against the transport
	// counters — and return the compressed channels' payload copies to
	// the pool; only now is every member done reading them.
	g := p.g
	if rec := g.rt.rec; rec != nil {
		rec.RecordSpan(g.rt.recOpsBase+int(g.class), ph, linkOf(g.class),
			p.issueNs, rec.Now(), p.wire.Load(), g.tag, -1, -1)
	}
	pool := g.rt.pool
	for i, s := range p.slots {
		pool.Put(s.Payload)
		pool.PutSparse(s.Sparse)
		p.slots[i] = Part{}
	}
	for i, f := range p.spent {
		pool.Put(f)
		p.spent[i] = nil
	}
	p.spent = p.spent[:0]
}

// send puts one message on the transport and tallies the op's executed
// wire volume.
func (p *Pending) send(self, to int, m Msg) {
	p.g.rt.tr.Send(p.g.class, self, to, m)
	p.wire.Add(m.Bytes)
}

// mod returns x mod d for possibly-negative x.
func mod(x, d int) int { return ((x % d) + d) % d }

// The schedules below run unchanged over either kind of transport; they
// differ only in where a chunk's or payload's data is. In process a
// message is a bare step token — the data stays in the members' shared
// buffers, and the token's channel hand-off is the happens-before edge
// that makes reading the sender's buffer race-free (the race-enabled
// equivalence tests execute exactly this path). Over a remote transport
// a member can only read what arrived in a message, so the same message
// carries the data. Either way three invariants hold, which the
// cross-transport oracle tests pin:
//
//   - bit-identity: every reduction folds contributions in flat member
//     order 0..D−1, the order of the serial reference, so results match
//     at tolerance 0;
//   - Stats parity: a member sends the same messages with the same
//     modelled byte sizes on both transports (steps are booked once per
//     op by accountSteps), so per-class Bytes, Messages and Steps —
//     summed over a grid's processes — are equal;
//   - issue-order determinism: every process issues the same ops in the
//     same order, and per-(class, pair) message streams are FIFO, so
//     in-flight ops never interleave.

// runAllReduce executes member m's share of a bucket all-reduce.
func (p *Pending) runAllReduce(m int) {
	var batchBytes int64
	for k := range p.comp {
		batchBytes += p.compress(m, k)
	}
	if len(p.dense) > 0 {
		p.ringDense(m)
	}
	if len(p.comp) > 0 {
		p.gatherCompressed(m, batchBytes)
		for k := range p.comp {
			p.fold(m, k)
		}
	}
}

// runAlone is the degenerate single-member all-reduce, run at issue
// time: scale dense channels, and compress/reconstruct compressed ones
// locally so the error-feedback residual sequence matches the serial
// semantics.
func (p *Pending) runAlone() {
	g := p.g
	if !g.rt.local[g.ranks[0]] {
		return
	}
	for _, ci := range p.dense {
		if p.scale != 1 {
			p.chans[ci].Bufs[0].Scale(p.scale)
		}
	}
	for k, ci := range p.comp {
		buf, ef := p.chans[ci].Bufs[0], p.chans[ci].EFs[0]
		if p.sparse[k] {
			pl, _ := ef.CompressWithFeedbackSparse(buf)
			buf.Zero()
			tensor.SpAxpyInto(buf, p.scale, &pl.Sparse)
			g.rt.spOps.Add(1)
			continue
		}
		_, recon := ef.CompressWithFeedback(buf)
		buf.CopyFrom(recon)
		if p.scale != 1 {
			buf.Scale(p.scale)
		}
	}
}

// pieceIter walks a range of the dense channels' virtual concatenation
// as the pieces it is made of: each piece is n consecutive elements of
// one channel, starting at element a there and at offset off within the
// walked range.
type pieceIter struct {
	p         *Pending
	lo, hi    int
	i         int // index into p.dense of the current piece's channel
	a, n, off int
}

func (p *Pending) pieces(lo, hi int) pieceIter { return pieceIter{p: p, lo: lo, hi: hi} }

func (it *pieceIter) next() bool {
	it.off += it.n
	pos := it.lo + it.off
	if pos >= it.hi {
		return false
	}
	cum := it.p.cum
	for cum[it.i+1] <= pos {
		it.i++
	}
	it.a = pos - cum[it.i]
	it.n = min(it.hi, cum[it.i+1]) - pos
	return true
}

// of returns member j's elements of the current piece.
func (it *pieceIter) of(j int) []float64 {
	return it.p.chans[it.p.dense[it.i]].Bufs[j].Data[it.a : it.a+it.n]
}

// in returns the current piece's elements of a flat image of the range.
func (it *pieceIter) in(flat []float64) []float64 { return flat[it.off : it.off+it.n] }

// sendChunk sends chunk c of the concatenation to rank `to`: a token
// sized as the chunk in memory; over a wire, member m's copy of the
// chunk's pieces packed into one dense part.
func (p *Pending) sendChunk(m, to, c int) {
	g := p.g
	lo, hi := p.offs[c], p.offs[c+1]
	msg := Msg{Bytes: int64(hi-lo) * compress.ElemBytes}
	if !g.rt.remote {
		p.send(g.ranks[m], to, msg)
		return
	}
	// The transport encodes synchronously, so the packing scratch goes
	// straight back to the pool.
	pack := g.rt.pool.GetUninit(1, hi-lo)
	for it := p.pieces(lo, hi); it.next(); {
		copy(it.in(pack.Data), it.of(m))
	}
	msg.Payload, msg.Pooled = pack, true
	p.send(g.ranks[m], to, msg)
	g.rt.pool.Put(pack)
}

// seg returns the chunk member o owns in the reduce-scatter partition.
func (p *Pending) seg(o int) int { return mod(o+1, len(p.g.ranks)) }

// ringDense executes member m's dense ring over the concatenation.
//
// A textbook reduce-scatter folds each chunk incrementally in rotated
// ring order (owner+1, owner+2, …) — a different floating-point addition
// order per chunk. Here phase 1 instead hands every owner the raw copies
// of its chunk — member m sends its untouched copy of chunk seg(o) to
// each owner o — and the owner folds all D copies flat. What a member
// sends is every chunk except its own: exactly the bytes and message
// count of the ring reduce-scatter. Phase 2 is the standard ring
// all-gather of the reduced chunks.
func (p *Pending) ringDense(m int) {
	g := p.g
	d := len(g.ranks)
	tr, cls, pool, remote := g.rt.tr, g.class, g.rt.pool, g.rt.remote
	self, right, left := g.ranks[m], g.ranks[mod(m+1, d)], g.ranks[mod(m-1, d)]

	// Phase 1a: one message per other owner, in ascending owner order (a
	// fixed order keeps per-pair streams deterministic when several ops
	// are in flight).
	for o := 0; o < d; o++ {
		if o != m {
			p.sendChunk(m, g.ranks[o], p.seg(o))
		}
	}

	// Phase 1b: fold my chunk from every member's raw copy, in flat
	// member order. In memory member j's message is the edge after which
	// its buffers may be read: they hold its contribution until its own
	// all-gather overwrites this chunk, which can only follow my first
	// all-gather send below. Writes stay inside my chunk, which no other
	// member reads before that send either.
	lo, hi := p.offs[p.seg(m)], p.offs[p.seg(m)+1]
	sum := pool.Get(1, hi-lo)
	for j := 0; j < d; j++ {
		if j != m {
			msg := tr.Recv(cls, self, g.ranks[j])
			if remote {
				sum.Add(msg.Payload)
				pool.Put(msg.Payload)
				continue
			}
		}
		for it := p.pieces(lo, hi); it.next(); {
			acc := it.in(sum.Data)
			for i, v := range it.of(j) {
				acc[i] += v
			}
		}
	}
	if p.scale != 1 {
		sum.Scale(p.scale)
	}
	p.store(m, lo, hi, sum.Data)
	pool.Put(sum)

	// Phase 2: ring all-gather. Chunk (m+1−t) goes right, chunk (m−t)
	// arrives from the left — in its message, or final in the left
	// member's buffers once its token has.
	for t := 0; t < d-1; t++ {
		p.sendChunk(m, right, mod(m+1-t, d))
		msg := tr.Recv(cls, self, left)
		lo, hi := p.offs[mod(m-t, d)], p.offs[mod(m-t, d)+1]
		if !remote {
			for it := p.pieces(lo, hi); it.next(); {
				copy(it.of(m), it.of(mod(m-1, d)))
			}
			continue
		}
		if msg.Payload == nil || len(msg.Payload.Data) != hi-lo {
			panic(fmt.Sprintf("collective: all-gather message does not carry the %d-element chunk", hi-lo))
		}
		p.store(m, lo, hi, msg.Payload.Data)
		pool.Put(msg.Payload)
	}
}

// store writes flat, an image of elements [lo, hi) of the concatenation,
// into member m's buffers.
func (p *Pending) store(m, lo, hi int, flat []float64) {
	for it := p.pieces(lo, hi); it.next(); {
		copy(it.of(m), it.in(flat))
	}
}

// compress runs member m's compressor of compressed channel k and parks
// the result in its slot, returning the payload's wire size.
//
// Both the reconstruction and the sparse payload alias the compressor's
// scratch, overwritten by its next same-shape compression — which an
// in-flight successor op sharing the compressor may issue before every
// member here has reduced it. The slot therefore holds a pooled copy
// (the SendCompressed precedent).
func (p *Pending) compress(m, k int) int64 {
	g := p.g
	ch := &p.chans[p.comp[k]]
	buf, ef := ch.Bufs[m], ch.EFs[m]
	slot := &p.slots[k*len(g.ranks)+m]
	if p.sparse[k] {
		pl, _ := ef.CompressWithFeedbackSparse(buf)
		slot.Sparse = g.rt.pool.GetSparse(buf.Rows, buf.Cols)
		slot.Sparse.CopyFrom(&pl.Sparse)
		if g.rt.remote {
			p.batch[k] = *slot
		}
		return pl.WireBytes()
	}
	pl, recon := ef.CompressWithFeedback(buf)
	slot.Payload = g.rt.pool.GetUninit(recon.Rows, recon.Cols) // CopyFrom writes every element
	slot.Payload.CopyFrom(recon)
	if g.rt.remote {
		p.batch[k] = wirePart(pl, slot.Payload)
	}
	return pl.WireBytes()
}

// wirePart picks a compressed payload's compact exact wire form: the
// factor pair of a low-rank payload (valid until the compressor's next
// same-shape compression — the transport encodes before that), and the
// dense reconstruction of a family whose payload has no wire form.
func wirePart(pl compress.Payload, recon *tensor.Matrix) Part {
	if lr, ok := pl.(*compress.LowRankPayload); ok {
		return Part{P: lr.P, Q: lr.Q}
	}
	return Part{Payload: recon}
}

// gatherCompressed executes member m's ring all-gather of the payload
// batches: each step forwards the batch received on the previous one, so
// variable payload sizes are accounted exactly. In memory the batches
// sit in the members' slots already and, after D−1 ring steps, every
// member's slot writes happen-before this member's reads. Over a wire
// each received batch is filed into its sender's slots and forwarded as
// it arrived.
func (p *Pending) gatherCompressed(m int, batchBytes int64) {
	g := p.g
	d := len(g.ranks)
	self, right, left := g.ranks[m], g.ranks[mod(m+1, d)], g.ranks[mod(m-1, d)]
	cur := Msg{Bytes: batchBytes}
	if g.rt.remote {
		cur.Part, cur.More, cur.Pooled = p.batch[0], p.batch[1:], true
	}
	for t := 0; t < d-1; t++ {
		p.send(self, right, cur)
		cur = g.rt.tr.Recv(g.class, self, left)
		if g.rt.remote {
			p.file(cur, mod(m-1-t, d))
		}
	}
}

// file stores member j's received batch in its slots, multiplying factor
// pairs back out. The factors themselves stay alive until the op ends:
// the batch is still to be forwarded from them. Every part is checked
// against its channel's form and shape first: the fold reads raw element
// ranges, so a part of the right size but the wrong shape would
// otherwise be folded silently.
func (p *Pending) file(msg Msg, j int) {
	g := p.g
	if msg.NumParts() != len(p.comp) {
		panic(fmt.Sprintf("collective: payload batch of %d parts for %d compressed channels", msg.NumParts(), len(p.comp)))
	}
	for k, ci := range p.comp {
		part := msg.PartAt(k)
		rows, cols := p.chans[ci].Bufs[0].Shape()
		var r, c int
		switch {
		case p.sparse[k] != (part.Sparse != nil):
			panic(fmt.Sprintf("collective: payload batch part %d has the wrong form", k))
		case part.Sparse != nil:
			r, c = part.Sparse.Rows, part.Sparse.Cols
		case part.P != nil:
			if part.Q == nil || part.P.Cols != part.Q.Cols {
				panic(fmt.Sprintf("collective: payload batch part %d is not a factor pair", k))
			}
			r, c = part.P.Rows, part.Q.Rows
		case part.Payload != nil:
			r, c = part.Payload.Shape()
		default:
			panic(fmt.Sprintf("collective: payload batch part %d has the wrong form", k))
		}
		if r != rows || c != cols {
			panic(fmt.Sprintf("collective: payload batch part %d is %dx%d for a %dx%d channel", k, r, c, rows, cols))
		}
		if part.P != nil {
			p.spent = append(p.spent, part.P, part.Q)
			part = Part{Payload: g.rt.reconstruct(part)}
		}
		p.slots[k*len(g.ranks)+j] = part
	}
}

// SparseReduceCapFraction is the density cap of the sparse merge-union
// reduction: when the payloads' summed nnz exceeds this fraction of the
// dense element count, the worst-case union is dense enough that the
// per-coordinate merge bookkeeping (a branchy two-pointer walk per
// operand pair) costs more than one streaming dense pass, so the
// reduction falls back to scatter-adding the payloads into the zeroed
// dense buffer. Either way the per-coordinate addition order is the
// flat ring order, so the crossover never changes results — only which
// loop produces them (the accounting lands in SparseReduceStats, and
// the crossover test drives an op across the cap to pin both sides).
const SparseReduceCapFraction = 0.5

// fold reduces compressed channel k's D slots, in flat member order,
// over member m's share of the channel. A dense-reconstruction channel
// sums them; a sparse-native one reduces by merge-union — per coordinate
// the same left-to-right addition sequence as the densified oracle, hence
// bit-identical at tol 0 — with no dense reconstruction anywhere.
//
// In memory every member's buffer holds the same result, so the fold is
// split the way the dense ring splits its reduce-scatter: member m folds
// only chunk m of the balanced D-way partition into its own buffer and
// copies it into the other D−1 members' buffers. No barrier is needed
// before those writes: every member's step-0 gather send follows its
// whole compress loop — its last read of its buffers — and this member's
// D−1-step gather has received a chain of messages from each of those
// sends, so every read happens-before these writes; the members write
// disjoint ranges; and the buffers are the op's until Wait, which waits
// for every member. Nothing extra goes on the transport. Over a wire the
// local member is the only one here, so it folds the whole channel into
// its own buffer.
func (p *Pending) fold(m, k int) {
	g := p.g
	d := len(g.ranks)
	bufs := p.chans[p.comp[k]].Bufs
	buf := bufs[m]
	slots := p.slots[k*d : (k+1)*d]
	lo, hi := 0, buf.NumElements()
	if !g.rt.remote {
		lo, hi = chunk(hi, d, m)
	}
	acc := buf.Data[lo:hi]
	clear(acc)
	if p.sparse[k] {
		p.foldSparse(m, buf, slots, lo, hi)
	} else {
		for _, s := range slots {
			for i, v := range s.Payload.Data[lo:hi] {
				acc[i] += v
			}
		}
		p.scaleRange(acc)
	}
	if !g.rt.remote {
		for j, b := range bufs {
			if j != m {
				copy(b.Data[lo:hi], acc)
			}
		}
	}
}

// foldSparse is fold's sparse-native reduction of elements [lo, hi) of
// buf, which the caller has zeroed there. Each slot is cut to the range
// (see cut). The density cap is decided on the whole channel's nnz, so
// every member decides alike.
func (p *Pending) foldSparse(m int, buf *tensor.Matrix, slots []Part, lo, hi int) {
	g := p.g
	total := 0
	for _, s := range slots {
		total += s.Sparse.NNZ()
	}
	// Member 0 books the decision: once per channel, in whichever process
	// runs it.
	if float64(total) > SparseReduceCapFraction*float64(buf.NumElements()) {
		if m == 0 {
			g.rt.spFallbacks.Add(1)
		}
		for _, s := range slots {
			v := cut(s.Sparse, lo, hi)
			tensor.SpAxpyInto(buf, 1, &v)
		}
		p.scaleRange(buf.Data[lo:hi])
		return
	}
	if m == 0 {
		g.rt.spOps.Add(1)
	}
	// Both merge buffers are sized for the whole channel's union: pooled
	// buffers serve every member's chunk in turn, and one sized for a
	// smaller chunk would otherwise regrow in the steady state.
	pool := g.rt.pool
	sa, sb := pool.GetSparse(buf.Rows, buf.Cols), pool.GetSparse(buf.Rows, buf.Cols)
	sa.Reuse(total, buf.Rows, buf.Cols)
	sb.Reuse(total, buf.Rows, buf.Cols)
	first := cut(slots[0].Sparse, lo, hi)
	cur, next := &first, sa
	for _, s := range slots[1:] {
		v := cut(s.Sparse, lo, hi)
		tensor.MergeUnionInto(next, cur, &v)
		if next == sa {
			cur, next = sa, sb
		} else {
			cur, next = sb, sa
		}
	}
	tensor.SpAxpyInto(buf, p.scale, cur)
	pool.PutSparse(sa)
	pool.PutSparse(sb)
}

// cut returns the entries of s whose flat index lies in [lo, hi), as a
// view sharing s's storage: Indices ascend, so two binary searches bound
// them.
func cut(s *tensor.Sparse, lo, hi int) tensor.Sparse {
	a, _ := slices.BinarySearch(s.Indices, lo)
	b, _ := slices.BinarySearch(s.Indices, hi)
	return tensor.Sparse{Rows: s.Rows, Cols: s.Cols, Indices: s.Indices[a:b], Values: s.Values[a:b]}
}

// scaleRange applies the op's scale to a folded range.
func (p *Pending) scaleRange(acc []float64) {
	if p.scale == 1 {
		return
	}
	for i := range acc {
		acc[i] *= p.scale
	}
}

// runBroadcast executes member m's share of the ring pipeline rooted at
// member p.root.
func (p *Pending) runBroadcast(m int) {
	g := p.g
	d := len(g.ranks)
	self, right, left := g.ranks[m], g.ranks[mod(m+1, d)], g.ranks[mod(m-1, d)]
	bufs := p.chans[0].Bufs
	rel := mod(m-p.root, d)
	if rel > 0 {
		msg := g.rt.tr.Recv(g.class, self, left)
		if g.rt.remote {
			bufs[m].CopyFrom(msg.Payload)
			g.rt.pool.Put(msg.Payload)
		} else {
			bufs[m].CopyFrom(bufs[mod(m-1, d)])
		}
	}
	if rel < d-1 {
		msg := Msg{Bytes: p.opBytes}
		if g.rt.remote {
			msg.Payload, msg.Pooled = bufs[m], true
		}
		p.send(self, right, msg)
	}
}
