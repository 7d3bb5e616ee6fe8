package collective

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// SocketTransport is the wire Transport: every rank is its own OS process
// (or, in tests, its own transport instance) and messages travel as
// length-prefixed frames over TCP or Unix-domain sockets. One framed
// stream exists per directed rank pair — rank r listens on Addrs[r] and
// dials every peer it sends to — opened during construction with a
// magic/version/world/from/to handshake, so a misconfigured grid fails at
// rendezvous, not mid-training.
//
// Send and SendP2P serialize the payload synchronously into a pooled
// byte buffer before returning: once a send call returns, the caller may
// reuse or mutate the tensors it passed (the same post-send freedom the
// MemTransport's chunk tokens imply for ring buffers), and a per-
// connection writer goroutine drains the queue so sends never block on
// the peer — the unbounded queue is what makes the wire schedules
// deadlock-free by construction. Inbound frames are decoded by one
// reader goroutine per stream and routed into unbounded per-(class,
// kind, sender) mailboxes, so a stream carrying several link classes
// cannot head-of-line block one class behind another.
//
// Per-class Stats count exactly what MemTransport counts — the modelled
// fp16 bytes, messages, and steps of each send — so a grid's aggregated
// socket Stats are bit-equal to the in-memory oracle's. FrameBytes
// separately tallies the bytes actually written to the wire (headers +
// the parts' float64 images, each in its compact exact form).
type SocketTransport struct {
	cfg   SocketConfig
	rank  int
	world int

	ln   net.Listener
	out  []*sockWriter // per destination rank; nil for self
	mbox [numClasses][2][]*mailbox

	// inMu guards inConns, the accepted streams — closed on shutdown so
	// readers unblock promptly instead of waiting out a read deadline.
	inMu    sync.Mutex
	inConns []net.Conn

	// pool supplies decoded payload tensors (pooled dense and sparse
	// frames). Swapped by SetDecodePool while readers may be running,
	// hence atomic.
	pool atomic.Pointer[tensor.Pool]

	counters   [numClasses]classCounters
	frameBytes atomic.Int64

	bufs sync.Pool // *[]byte encode/decode scratch

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	failOnce  sync.Once
	// failErr is the first transport failure. A reader or writer goroutine
	// stores it; Err loads it from whichever goroutine is asking.
	failErr atomic.Pointer[error]
}

// SocketConfig describes one rank's view of a socket grid.
type SocketConfig struct {
	// Network is "unix" or "tcp".
	Network string
	// Rank is the local rank; Addrs[Rank] is listened on, every other
	// entry dialed.
	Rank int
	// World is the total rank count; len(Addrs) must equal it.
	World int
	// Addrs holds every rank's data address (socket paths for "unix",
	// host:port for "tcp").
	Addrs []string
	// DialTimeout bounds the whole rendezvous (listen, dial-with-retry,
	// handshake, inbound registration). 0 means 30s.
	DialTimeout time.Duration
	// IOTimeout bounds every wait on a stream: for the next bytes of an
	// inbound stream (between frames or inside one) and for one frame's
	// write. It must exceed the longest legitimate link-idle period (a
	// rank's compute phase between communication calls). 0 means 2
	// minutes.
	IOTimeout time.Duration
}

func (c *SocketConfig) dialTimeout() time.Duration {
	if c.DialTimeout > 0 {
		return c.DialTimeout
	}
	return 30 * time.Second
}

func (c *SocketConfig) ioTimeout() time.Duration {
	if c.IOTimeout > 0 {
		return c.IOTimeout
	}
	return 2 * time.Minute
}

// Handshake: magic, version, then world/from/to as uint32 LE, answered
// with a single ack byte once the receiver has registered the stream.
var sockMagic = [4]byte{'O', 'C', 'C', '1'}

const (
	handshakeLen = 17
	handshakeAck = 0x06
)

// NewSocketTransport listens on cfg.Addrs[cfg.Rank] and completes the
// full-mesh rendezvous: it returns once every outbound stream is
// handshaken and every inbound stream registered, or fails after
// cfg.DialTimeout.
func NewSocketTransport(cfg SocketConfig) (*SocketTransport, error) {
	if cfg.Network != "unix" && cfg.Network != "tcp" {
		return nil, fmt.Errorf("collective: socket network %q (want unix or tcp)", cfg.Network)
	}
	ln, err := net.Listen(cfg.Network, cfg.Addrs[cfg.Rank])
	if err != nil {
		return nil, fmt.Errorf("collective: rank %d listen: %w", cfg.Rank, err)
	}
	t, err := NewSocketTransportListener(cfg, ln)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return t, nil
}

// NewSocketTransportListener is NewSocketTransport over a listener the
// caller already opened — the TCP flow, where ranks listen on :0 first,
// learn their real addresses, exchange them through the coordinator, and
// only then build the transport. The listener is owned (and closed) by
// the transport from here on.
func NewSocketTransportListener(cfg SocketConfig, ln net.Listener) (*SocketTransport, error) {
	if cfg.World < 1 {
		return nil, fmt.Errorf("collective: socket world %d < 1", cfg.World)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.World {
		return nil, fmt.Errorf("collective: socket rank %d outside world %d", cfg.Rank, cfg.World)
	}
	if len(cfg.Addrs) != cfg.World {
		return nil, fmt.Errorf("collective: %d addresses for world %d", len(cfg.Addrs), cfg.World)
	}
	t := &SocketTransport{
		cfg:   cfg,
		rank:  cfg.Rank,
		world: cfg.World,
		ln:    ln,
		out:   make([]*sockWriter, cfg.World),
		done:  make(chan struct{}),
	}
	for c := range t.mbox {
		for k := range t.mbox[c] {
			boxes := make([]*mailbox, cfg.World)
			for i := range boxes {
				boxes[i] = newMailbox()
			}
			t.mbox[c][k] = boxes
		}
	}
	deadline := time.Now().Add(cfg.dialTimeout())

	// Inbound half: accept world−1 streams, each announced by a
	// handshake naming its sender.
	registered := make(chan int, cfg.World)
	acceptErr := make(chan error, 1)
	t.wg.Add(1)
	go t.acceptLoop(registered, acceptErr)

	// Outbound half: dial every peer (with retry — their listeners may
	// not be up yet) and handshake. The constructor goroutine alone
	// assigns t.out, so an abort never races a late dialer.
	type dialRes struct {
		to   int
		conn net.Conn
		err  error
	}
	dialCh := make(chan dialRes, cfg.World)
	pendingDials := 0
	for to := 0; to < cfg.World; to++ {
		if to == t.rank {
			continue
		}
		pendingDials++
		go func(to int) {
			conn, err := t.dialPeer(to, deadline)
			dialCh <- dialRes{to: to, conn: conn, err: err}
		}(to)
	}
	abort := func(err error) (*SocketTransport, error) {
		// Late dialers respect the rendezvous deadline; reap their
		// connections in the background and shut down what exists now.
		go func(n int) {
			for i := 0; i < n; i++ {
				if r := <-dialCh; r.conn != nil {
					r.conn.Close()
				}
			}
		}(pendingDials)
		t.Close()
		return nil, err
	}

	seen := make(map[int]bool, cfg.World)
	needIn, needOut := cfg.World-1, cfg.World-1
	timeout := time.NewTimer(time.Until(deadline))
	defer timeout.Stop()
	for needIn > 0 || needOut > 0 {
		select {
		case from := <-registered:
			if seen[from] {
				return abort(fmt.Errorf("collective: rank %d: duplicate inbound stream from rank %d", t.rank, from))
			}
			seen[from] = true
			needIn--
		case r := <-dialCh:
			pendingDials--
			if r.err != nil {
				return abort(r.err)
			}
			t.out[r.to] = newSockWriter(t, r.conn)
			needOut--
		case err := <-acceptErr:
			return abort(err)
		case <-timeout.C:
			return abort(fmt.Errorf("collective: rank %d: rendezvous timed out (%d inbound, %d outbound streams missing)", t.rank, needIn, needOut))
		}
	}
	// Rendezvous complete: start the writer goroutines (queues may
	// already hold nothing — sends only begin after construction).
	for _, w := range t.out {
		if w != nil {
			w.mu.Lock()
			w.started = true
			w.mu.Unlock()
			t.wg.Add(1)
			go w.run()
		}
	}
	return t, nil
}

// dialPeer dials rank to's address until it answers or the rendezvous
// deadline passes, then performs the outbound handshake.
func (t *SocketTransport) dialPeer(to int, deadline time.Time) (net.Conn, error) {
	addr := t.cfg.Addrs[to]
	backoff := 2 * time.Millisecond
	for {
		d := net.Dialer{Deadline: deadline}
		conn, err := d.Dial(t.cfg.Network, addr)
		if err == nil {
			if err := t.handshakeOut(conn, to); err != nil {
				conn.Close()
				return nil, err
			}
			return conn, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("collective: rank %d: dial rank %d (%s %s): %w", t.rank, to, t.cfg.Network, addr, err)
		}
		time.Sleep(backoff)
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// handshakeOut announces this rank on a freshly dialed stream and waits
// for the peer's ack.
func (t *SocketTransport) handshakeOut(conn net.Conn, to int) error {
	var hs [handshakeLen]byte
	copy(hs[:4], sockMagic[:])
	hs[4] = wireVersion
	binary.LittleEndian.PutUint32(hs[5:], uint32(t.world))
	binary.LittleEndian.PutUint32(hs[9:], uint32(t.rank))
	binary.LittleEndian.PutUint32(hs[13:], uint32(to))
	conn.SetDeadline(time.Now().Add(t.cfg.ioTimeout()))
	if _, err := conn.Write(hs[:]); err != nil {
		return fmt.Errorf("collective: rank %d: handshake write to rank %d: %w", t.rank, to, err)
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return fmt.Errorf("collective: rank %d: handshake ack from rank %d: %w", t.rank, to, err)
	}
	if ack[0] != handshakeAck {
		return fmt.Errorf("collective: rank %d: bad handshake ack %#x from rank %d", t.rank, ack[0], to)
	}
	conn.SetDeadline(time.Time{})
	return nil
}

// acceptLoop registers inbound streams until the listener closes.
func (t *SocketTransport) acceptLoop(registered chan<- int, acceptErr chan<- error) {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.done:
			default:
				select {
				case acceptErr <- err:
				default:
				}
			}
			return
		}
		from, err := t.handshakeIn(conn)
		if err != nil {
			conn.Close()
			select {
			case acceptErr <- err:
			default:
			}
			return
		}
		t.inMu.Lock()
		t.inConns = append(t.inConns, conn)
		t.inMu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn, from)
		registered <- from
	}
}

// handshakeIn validates a peer's announcement and acks it.
func (t *SocketTransport) handshakeIn(conn net.Conn) (from int, err error) {
	conn.SetDeadline(time.Now().Add(t.cfg.ioTimeout()))
	var hs [handshakeLen]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		return 0, fmt.Errorf("collective: rank %d: handshake read: %w", t.rank, err)
	}
	if [4]byte(hs[:4]) != sockMagic {
		return 0, fmt.Errorf("collective: rank %d: bad handshake magic %q", t.rank, hs[:4])
	}
	if hs[4] != wireVersion {
		return 0, fmt.Errorf("collective: rank %d: handshake version %d, want %d", t.rank, hs[4], wireVersion)
	}
	world := int(binary.LittleEndian.Uint32(hs[5:]))
	from = int(binary.LittleEndian.Uint32(hs[9:]))
	to := int(binary.LittleEndian.Uint32(hs[13:]))
	if world != t.world {
		return 0, fmt.Errorf("collective: rank %d: handshake world %d, want %d", t.rank, world, t.world)
	}
	if from < 0 || from >= t.world || from == t.rank {
		return 0, fmt.Errorf("collective: rank %d: handshake from invalid rank %d", t.rank, from)
	}
	if to != t.rank {
		return 0, fmt.Errorf("collective: rank %d: handshake addressed to rank %d", t.rank, to)
	}
	if _, err := conn.Write([]byte{handshakeAck}); err != nil {
		return 0, fmt.Errorf("collective: rank %d: handshake ack write: %w", t.rank, err)
	}
	conn.SetDeadline(time.Time{})
	return from, nil
}

// deadlineReader arms the stream's read deadline before every read that
// actually reaches the socket — once per wait for bytes, none at all for
// a frame the buffered reader already holds.
type deadlineReader struct {
	conn    net.Conn
	timeout time.Duration
}

func (r deadlineReader) Read(p []byte) (int, error) {
	r.conn.SetReadDeadline(time.Now().Add(r.timeout))
	return r.conn.Read(p)
}

const (
	// readStep bounds how far a frame's body buffer grows ahead of the
	// bytes that have actually arrived, so a lying length prefix costs
	// one step, not the gigabyte it claims.
	readStep = 64 << 10
	// readBuffer sizes each inbound stream's buffered reader: a typical
	// frame's header and body — and any frames queued behind it — come
	// out of one read (a larger body is read straight into its buffer).
	readBuffer = 16 << 10
)

// readLoop decodes frames from one inbound stream and routes them to
// their mailboxes until the stream or transport closes.
func (t *SocketTransport) readLoop(conn net.Conn, from int) {
	defer t.wg.Done()
	defer conn.Close()
	br := bufio.NewReaderSize(deadlineReader{conn, t.cfg.ioTimeout()}, readBuffer)
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			if err != io.EOF {
				t.fail(fmt.Errorf("collective: rank %d: read from rank %d: %w", t.rank, from, err))
			}
			return
		}
		n := int(binary.LittleEndian.Uint32(lenBuf[:]))
		if n > maxFrameBody {
			t.fail(fmt.Errorf("collective: rank %d: frame of %d bytes from rank %d exceeds limit", t.rank, n, from))
			return
		}
		fb := t.getBuf()
		body := (*fb)[:0]
		for len(body) < n {
			have, step := len(body), min(n-len(body), readStep)
			body = slices.Grow(body, step)[:have+step]
			if _, err := io.ReadFull(br, body[have:]); err != nil {
				t.fail(fmt.Errorf("collective: rank %d: frame body from rank %d: %w", t.rank, from, err))
				return
			}
		}
		h, m, err := decodeFrameBody(body, t.world, t.pool.Load())
		*fb = body
		t.putBuf(fb)
		if err != nil {
			t.fail(fmt.Errorf("collective: rank %d: frame from rank %d: %w", t.rank, from, err))
			return
		}
		if h.from != from || h.to != t.rank {
			t.fail(fmt.Errorf("collective: rank %d: frame routed (%d→%d) on stream from rank %d", t.rank, h.from, h.to, from))
			return
		}
		t.mbox[h.class][h.kind][from].push(m)
	}
}

// fail records the first transport error and poisons every mailbox so
// blocked receivers surface it instead of hanging.
func (t *SocketTransport) fail(err error) {
	select {
	case <-t.done:
		return // shutting down: late stream errors are expected
	default:
	}
	t.failOnce.Do(func() {
		t.failErr.Store(&err)
		for c := range t.mbox {
			for k := range t.mbox[c] {
				for _, b := range t.mbox[c][k] {
					b.fail(err)
				}
			}
		}
	})
}

// getBuf borrows an empty frame buffer. The box travels with its buffer
// — through the writer queue and back through putBuf — so recycling
// allocates nothing, and a buffer that grew keeps its capacity.
func (t *SocketTransport) getBuf() *[]byte {
	if fb, ok := t.bufs.Get().(*[]byte); ok {
		return fb
	}
	return new([]byte)
}

// putBuf returns a buffer for reuse.
func (t *SocketTransport) putBuf(fb *[]byte) {
	*fb = (*fb)[:0]
	t.bufs.Put(fb)
}

// SetDecodePool routes decoded payload tensors (pooled dense frames,
// sparse frames) through p, so receivers that Put them back recycle the
// same buffers — the trainer points this at its workspace pool. A nil
// pool (the default) decodes into fresh allocations.
func (t *SocketTransport) SetDecodePool(p *tensor.Pool) { t.pool.Store(p) }

// World returns the rank count.
func (t *SocketTransport) World() int { return t.world }

// LocalRank returns the rank this transport sends as. The collective
// runtime uses it to spawn a worker for (and dispatch group work to)
// only the local rank.
func (t *SocketTransport) LocalRank() int { return t.rank }

// FrameBytes returns the total bytes actually framed onto the wire by
// this rank's sends (headers plus the parts' float64 images) — the
// honest wire volume, distinct from the modelled fp16 Stats bytes.
func (t *SocketTransport) FrameBytes() int64 { return t.frameBytes.Load() }

func (t *SocketTransport) checkClass(c Class) {
	if c < 0 || c >= numClasses {
		panic(fmt.Sprintf("collective: class %d outside [0,%d)", int(c), int(numClasses)))
	}
}

func (t *SocketTransport) checkPair(from, to int) {
	if from < 0 || from >= t.world || to < 0 || to >= t.world {
		panic(fmt.Sprintf("collective: rank pair (%d,%d) outside world %d", from, to, t.world))
	}
}

// post frames m and hands it to the destination's writer (or loops it
// back through the codec for a self-send, keeping one code path).
func (t *SocketTransport) post(c Class, kind frameKind, from, to int, m Msg) {
	if from != t.rank {
		panic(fmt.Sprintf("collective: rank %d sending as rank %d", t.rank, from))
	}
	fb := t.getBuf()
	*fb = appendFrame(*fb, c, kind, from, to, m)
	t.frameBytes.Add(int64(len(*fb)))
	if to == t.rank {
		h, dm, err := decodeFrameBody((*fb)[4:], t.world, t.pool.Load())
		if err != nil {
			panic(fmt.Sprintf("collective: self-send frame round-trip: %v", err))
		}
		t.putBuf(fb)
		t.mbox[h.class][h.kind][from].push(dm)
		return
	}
	t.out[to].enqueue(fb)
}

// Send implements Transport: the ring-step twin of MemTransport.Send,
// except the chunk data (when the wire schedules attach it) travels in
// the frame.
func (t *SocketTransport) Send(c Class, from, to int, m Msg) {
	t.checkClass(c)
	t.checkPair(from, to)
	t.counters[c].bytes.Add(m.Bytes)
	t.counters[c].messages.Add(1)
	t.post(c, frameRing, from, to, m)
}

// Recv implements Transport.
func (t *SocketTransport) Recv(c Class, to, from int) Msg {
	t.checkClass(c)
	t.checkPair(from, to)
	if to != t.rank {
		panic(fmt.Sprintf("collective: rank %d receiving as rank %d", t.rank, to))
	}
	return t.mbox[c][frameRing][from].pop()
}

// SendP2P implements Transport.
func (t *SocketTransport) SendP2P(c Class, from, to int, m Msg) {
	t.checkClass(c)
	t.checkPair(from, to)
	t.counters[c].bytes.Add(m.Bytes)
	t.counters[c].messages.Add(1)
	t.counters[c].steps.Add(1)
	t.post(c, frameP2P, from, to, m)
}

// RecvP2P implements Transport.
func (t *SocketTransport) RecvP2P(c Class, to, from int) Msg {
	t.checkClass(c)
	t.checkPair(from, to)
	if to != t.rank {
		panic(fmt.Sprintf("collective: rank %d receiving as rank %d", t.rank, to))
	}
	return t.mbox[c][frameP2P][from].pop()
}

// AddSteps implements Transport.
func (t *SocketTransport) AddSteps(c Class, n int) {
	t.checkClass(c)
	t.counters[c].steps.Add(int64(n))
}

// Remote implements Transport: payloads must ship in frames.
func (t *SocketTransport) Remote() bool { return true }

// Stats implements Transport. For a full grid's accounting, sum every
// rank's snapshot: each send is counted once, at its sender, so the
// aggregate equals the MemTransport totals of the same run.
func (t *SocketTransport) Stats() Stats {
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

// Err returns the first transport failure (nil while healthy) — the
// error blocked receivers panic with.
func (t *SocketTransport) Err() error {
	if p := t.failErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Close shuts the transport down cleanly: outbound writers flush their
// queues and close their streams, the listener stops accepting, and
// reader goroutines drain to EOF. Collectives must not be in flight.
// Idempotent.
func (t *SocketTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		for _, w := range t.out {
			if w != nil {
				w.close()
			}
		}
		if t.ln != nil {
			t.ln.Close()
		}
		t.inMu.Lock()
		for _, c := range t.inConns {
			c.Close()
		}
		t.inMu.Unlock()
	})
	t.wg.Wait()
	return nil
}

var _ Transport = (*SocketTransport)(nil)

// sockWriter owns one outbound stream: an unbounded frame queue drained
// by a dedicated goroutine, so senders never block on the peer.
type sockWriter struct {
	t       *SocketTransport
	conn    net.Conn
	mu      sync.Mutex
	cond    *sync.Cond
	q       fifo[*[]byte]
	closed  bool
	failed  bool
	started bool // run() owns the conn once started; close() owns it before
}

func newSockWriter(t *SocketTransport, conn net.Conn) *sockWriter {
	w := &sockWriter{t: t, conn: conn}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// enqueue appends one framed message. The buffer's ownership passes to
// the writer (it is recycled after the write).
func (w *sockWriter) enqueue(fb *[]byte) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		panic("collective: send on closed socket transport")
	}
	w.q.push(fb)
	w.mu.Unlock()
	w.cond.Signal()
}

// close marks the queue complete; the writer goroutine flushes what
// remains and closes the stream (or, if it never started — a rendezvous
// abort — the stream is closed here).
func (w *sockWriter) close() {
	w.mu.Lock()
	w.closed = true
	started := w.started
	w.mu.Unlock()
	w.cond.Broadcast()
	if !started {
		w.conn.Close()
	}
}

// run drains the queue until closed-and-empty (clean flush) or a write
// error (transport failure).
func (w *sockWriter) run() {
	defer w.t.wg.Done()
	defer w.conn.Close()
	for {
		w.mu.Lock()
		for w.q.len() == 0 && !w.closed {
			w.cond.Wait()
		}
		if w.q.len() == 0 {
			w.mu.Unlock()
			return
		}
		fb := w.q.pop()
		failed := w.failed
		w.mu.Unlock()
		if failed {
			w.t.putBuf(fb)
			continue // drain without writing after a failure
		}
		w.conn.SetWriteDeadline(time.Now().Add(w.t.cfg.ioTimeout()))
		_, err := w.conn.Write(*fb)
		w.t.putBuf(fb)
		if err != nil {
			w.mu.Lock()
			w.failed = true
			w.mu.Unlock()
			w.t.fail(fmt.Errorf("collective: rank %d: write: %w", w.t.rank, err))
		}
	}
}

// mailbox is an unbounded FIFO of decoded messages for one (class, kind,
// sender) key. Unbounded on purpose: inbound capacity can never be the
// edge that deadlocks a multiplexed stream.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    fifo[Msg]
	err  error
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) push(m Msg) {
	b.mu.Lock()
	b.q.push(m)
	b.mu.Unlock()
	b.cond.Signal()
}

// pop blocks for the next message; a poisoned mailbox panics with the
// transport's failure, mirroring the in-memory transport's fail-fast
// contract (a misrouted or corrupt stream is unrecoverable).
func (b *mailbox) pop() Msg {
	b.mu.Lock()
	for b.q.len() == 0 && b.err == nil {
		b.cond.Wait()
	}
	if b.q.len() == 0 {
		err := b.err
		b.mu.Unlock()
		panic(fmt.Sprintf("collective: receive on failed socket transport: %v", err))
	}
	m := b.q.pop()
	b.mu.Unlock()
	return m
}

func (b *mailbox) fail(err error) {
	b.mu.Lock()
	b.err = err
	b.mu.Unlock()
	b.cond.Broadcast()
}

// fifo is an unbounded queue over a ring that doubles when full, so a
// queue that drains as fast as it fills stops allocating once it has
// reached its working depth.
type fifo[T any] struct {
	buf     []T
	head, n int
}

func (q *fifo[T]) len() int { return q.n }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(4, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// pop removes the oldest element; the queue must be non-empty.
func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // drop the reference
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}
