package collective

import (
	"fmt"
	"sync/atomic"

	"repro/internal/tensor"
)

// Class is the link class a message travels on. The analytic cost models
// split traffic the same way: data-parallel gradient averaging (Eq. 4),
// inter-stage pipeline transfers (§5), and embedding synchronization
// (Eq. 15/16).
type Class int

// Link classes.
const (
	ClassDP  Class = iota // data-parallel gradient all-reduce
	ClassPP               // inter-stage (pipeline) point-to-point
	ClassEmb              // embedding synchronization (§6)
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassDP:
		return "dp"
	case ClassPP:
		return "pp"
	case ClassEmb:
		return "emb"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classes lists every link class (for iteration in reports).
func Classes() []Class { return []Class{ClassDP, ClassPP, ClassEmb} }

// Part is one payload of a message in its compact exact form. At most
// one form is set: a dense float64 image, a sparse index/value view, or
// a low-rank factor pair whose reconstruction P·Qᵀ the receiver rebuilds
// with the same stateless tensor.MatMulBTInto the sender's decompressor
// ran — the same bits from a fraction of the elements.
type Part struct {
	// Payload is the dense tensor. In process, ownership transfers to the
	// receiver.
	Payload *tensor.Matrix
	// Sparse is the sparse-native payload: index/value pairs in place of
	// a dense tensor, always pool-borrowed on the receiving side.
	Sparse *tensor.Sparse
	// P (rows×r) and Q (cols×r) are the low-rank factors, always
	// pool-borrowed on the receiving side.
	P, Q *tensor.Matrix
}

// Msg is one transport message. On the in-memory ring collectives it is
// a step token announcing that a chunk of the sender's buffer is final,
// sized as it would be on a wire: the data itself stays in shared
// memory, and the token carries the accounting and — through the channel
// it travels on — the happens-before edge that makes reading the
// sender's buffer safe. Point-to-point sends, and every message of a
// remote transport, additionally carry the data: the embedded Part is
// the message's first (usually only) payload, More the rest of a batch —
// a compressed all-gather step ships one part per compressed channel of
// its bucket in one message.
type Msg struct {
	Bytes int64 // wire size this message represents
	Part
	// Pooled marks dense payloads borrowed from the sender's workspace
	// pool; the receiver must Put them back once consumed. (Sparse and
	// factor parts are always pooled.)
	Pooled bool
	// More holds the batch's further parts, in batch order after Part.
	More []Part
}

// NumParts returns how many payload parts the message carries.
func (m *Msg) NumParts() int {
	if m.Part == (Part{}) {
		return 0
	}
	return 1 + len(m.More)
}

// PartAt returns payload part i of the batch.
func (m *Msg) PartAt(i int) Part {
	if i == 0 {
		return m.Part
	}
	return m.More[i-1]
}

// Transport moves messages between ranks and accounts the traffic per
// link class. Implementations must be safe for concurrent use by many
// rank goroutines.
type Transport interface {
	// Send delivers a token from rank `from` to rank `to` on class c,
	// accounting one message of m.Bytes. It must not block indefinitely
	// when each destination's in-flight token count stays at ring depth
	// (≤ 2 per directed pair).
	Send(c Class, from, to int, m Msg)
	// Recv blocks until the next token from rank `from` arrives at rank
	// `to` on class c, and returns it.
	Recv(c Class, to, from int) Msg
	// SendP2P delivers a payload-carrying point-to-point message from
	// rank `from` to rank `to` on class c, accounting one message of
	// m.Bytes and one latency-bearing step. Unlike the ring channels,
	// the point-to-point queue must absorb the worst-case skew of a
	// pipeline schedule (one message per micro-batch per direction per
	// boundary), so a stage running ahead never blocks the schedule.
	SendP2P(c Class, from, to int, m Msg)
	// RecvP2P blocks until the next point-to-point message from rank
	// `from` arrives at rank `to` on class c, and returns it.
	RecvP2P(c Class, to, from int) Msg
	// AddSteps accounts n synchronized collective steps on class c (a
	// step is one ring round in which every participant sends once).
	AddSteps(c Class, n int)
	// Remote reports whether payload data must travel inside messages
	// (serialized onto a wire) rather than through shared memory. The
	// collective schedules attach each chunk's and payload's data to the
	// message announcing it when this is true, and send bare step tokens
	// over the members' shared buffers when it is false.
	Remote() bool
	// Stats snapshots cumulative per-class traffic.
	Stats() Stats
}

// ClassStats is cumulative traffic on one link class.
type ClassStats struct {
	Bytes    int64 // payload bytes represented by all messages
	Messages int64 // individual sends
	Steps    int64 // synchronized collective steps
}

// Stats is a per-class traffic snapshot.
type Stats [numClasses]ClassStats

// For returns the stats of one class.
func (s Stats) For(c Class) ClassStats { return s[c] }

// Total returns traffic summed over every class.
func (s Stats) Total() ClassStats {
	var t ClassStats
	for _, cs := range s {
		t.Bytes += cs.Bytes
		t.Messages += cs.Messages
		t.Steps += cs.Steps
	}
	return t
}

// Sub returns s − o field-wise (for windowed measurements).
func (s Stats) Sub(o Stats) Stats {
	for c := range s {
		s[c].Bytes -= o[c].Bytes
		s[c].Messages -= o[c].Messages
		s[c].Steps -= o[c].Steps
	}
	return s
}

// classCounters is the atomic backing of one class's stats.
type classCounters struct {
	bytes    atomic.Int64
	messages atomic.Int64
	steps    atomic.Int64
}

// MemTransport is the in-process Transport: one buffered channel per
// directed rank pair per class for ring step tokens, one more per pair
// per class for point-to-point payloads, and atomic traffic counters.
// The ring channel depth of 2 absorbs the one-step skew the ring
// schedule can accumulate between neighbours without ever blocking the
// steady state; the point-to-point depth is configurable because a
// pipeline rank may legitimately run a whole schedule phase ahead of its
// neighbour (bounded by one message per micro-batch per direction).
type MemTransport struct {
	world    int
	chans    [numClasses][]chan Msg
	p2p      [numClasses][]chan Msg
	counters [numClasses]classCounters
}

// DefaultP2PDepth is the point-to-point queue depth of NewMemTransport,
// enough for the 1F1B skew of typical micro-batch counts. Callers that
// know their schedule (the trainer does) should size it explicitly with
// NewMemTransportDepth.
const DefaultP2PDepth = 16

// NewMemTransport returns a transport for ranks [0, world) with the
// default point-to-point queue depth.
func NewMemTransport(world int) *MemTransport {
	return NewMemTransportDepth(world, DefaultP2PDepth)
}

// NewMemTransportDepth returns a transport for ranks [0, world) whose
// point-to-point queues hold up to p2pDepth in-flight messages per
// directed pair. A depth of one message per micro-batch (the per-link
// message count of one 1F1B iteration) makes sends non-blocking and the
// executor trivially deadlock-free.
//
// p2pDepth values below 2 are silently clamped up to 2: a depth of one
// cannot absorb even a single send-ahead message per direction, and a
// depth of zero would turn every SendP2P into a rendezvous — both
// deadlock-prone regressions of the contract above. The clamp is pinned
// by TestMemTransportDepthClamp.
func NewMemTransportDepth(world, p2pDepth int) *MemTransport {
	if world < 1 {
		panic(fmt.Sprintf("collective: transport world %d < 1", world))
	}
	if p2pDepth < 2 {
		p2pDepth = 2
	}
	t := &MemTransport{world: world}
	for c := range t.chans {
		pairs := make([]chan Msg, world*world)
		deep := make([]chan Msg, world*world)
		for i := range pairs {
			pairs[i] = make(chan Msg, 2)
			deep[i] = make(chan Msg, p2pDepth)
		}
		t.chans[c] = pairs
		t.p2p[c] = deep
	}
	return t
}

// World returns the rank count.
func (t *MemTransport) World() int { return t.world }

func (t *MemTransport) pairIdx(from, to int) int {
	if from < 0 || from >= t.world || to < 0 || to >= t.world {
		panic(fmt.Sprintf("collective: rank pair (%d,%d) outside world %d", from, to, t.world))
	}
	return from*t.world + to
}

func (t *MemTransport) pair(c Class, from, to int) chan Msg {
	return t.chans[c][t.pairIdx(from, to)]
}

// Send implements Transport.
func (t *MemTransport) Send(c Class, from, to int, m Msg) {
	t.counters[c].bytes.Add(m.Bytes)
	t.counters[c].messages.Add(1)
	t.pair(c, from, to) <- m
}

// Recv implements Transport.
func (t *MemTransport) Recv(c Class, to, from int) Msg {
	return <-t.pair(c, from, to)
}

// SendP2P implements Transport.
func (t *MemTransport) SendP2P(c Class, from, to int, m Msg) {
	t.counters[c].bytes.Add(m.Bytes)
	t.counters[c].messages.Add(1)
	t.counters[c].steps.Add(1)
	t.p2p[c][t.pairIdx(from, to)] <- m
}

// RecvP2P implements Transport.
func (t *MemTransport) RecvP2P(c Class, to, from int) Msg {
	return <-t.p2p[c][t.pairIdx(from, to)]
}

// AddSteps implements Transport.
func (t *MemTransport) AddSteps(c Class, n int) {
	t.counters[c].steps.Add(int64(n))
}

// Remote implements Transport: payloads move through shared memory.
func (t *MemTransport) Remote() bool { return false }

// Stats implements Transport.
func (t *MemTransport) Stats() Stats {
	var s Stats
	for c := range t.counters {
		s[c] = ClassStats{
			Bytes:    t.counters[c].bytes.Load(),
			Messages: t.counters[c].messages.Load(),
			Steps:    t.counters[c].steps.Load(),
		}
	}
	return s
}

var _ Transport = (*MemTransport)(nil)
