package collective

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/tensor"
)

// socketAddrs allocates one data address per rank: short-lived unix
// socket paths (kept short — the sun_path limit is ~104 bytes) or
// 127.0.0.1 TCP listeners opened up front so every address is concrete
// before any transport constructs.
func socketAddrs(t testing.TB, network string, world int) (addrs []string, lns []net.Listener) {
	t.Helper()
	addrs = make([]string, world)
	switch network {
	case "unix":
		dir, err := os.MkdirTemp("", "occ")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
		for r := range addrs {
			addrs[r] = filepath.Join(dir, fmt.Sprintf("r%d.sock", r))
		}
	case "tcp":
		lns = make([]net.Listener, world)
		for r := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			lns[r] = ln
			addrs[r] = ln.Addr().String()
		}
	default:
		t.Fatalf("bad network %q", network)
	}
	return addrs, lns
}

// newSocketGrid rendezvouses one SocketTransport per rank, all
// in-process — each instance plays the part of one rank's process.
func newSocketGrid(t testing.TB, network string, world int) []*SocketTransport {
	t.Helper()
	addrs, lns := socketAddrs(t, network, world)
	trs := make([]*SocketTransport, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := SocketConfig{
				Network: network, Rank: r, World: world, Addrs: addrs,
				DialTimeout: 20 * time.Second,
			}
			if lns != nil {
				trs[r], errs[r] = NewSocketTransportListener(cfg, lns[r])
			} else {
				trs[r], errs[r] = NewSocketTransport(cfg)
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d rendezvous: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	return trs
}

func TestSocketFrameExchange(t *testing.T) {
	for _, network := range []string{"unix", "tcp"} {
		t.Run(network, func(t *testing.T) {
			const world = 3
			trs := newSocketGrid(t, network, world)

			// Ring tokens: FIFO per (class, pair), Bytes intact.
			for r := 0; r < world; r++ {
				next := (r + 1) % world
				for i := 0; i < 5; i++ {
					trs[r].Send(ClassDP, r, next, Msg{Bytes: int64(100*r + i)})
				}
			}
			for r := 0; r < world; r++ {
				prev := (r + world - 1) % world
				for i := 0; i < 5; i++ {
					if got := trs[r].Recv(ClassDP, r, prev); got.Bytes != int64(100*prev+i) {
						t.Fatalf("rank %d token %d: bytes %d, want %d", r, i, got.Bytes, 100*prev+i)
					}
				}
			}

			// Dense ring payload: the float64 image crosses intact and the
			// Pooled marker survives.
			dense := tensor.New(3, 4)
			fillSeq(dense)
			trs[0].Send(ClassEmb, 0, 1, Msg{Bytes: 24, Part: Part{Payload: dense}, Pooled: true})
			got := trs[1].Recv(ClassEmb, 1, 0)
			if got.Bytes != 24 || !got.Pooled || got.Payload == nil || !got.Payload.Equal(dense, 0) {
				t.Fatalf("dense payload mangled: %+v", got)
			}

			// Sparse point-to-point payload.
			sp := testSparse(3, 4, []int{1, 5, 11}, []float64{-1, 2.5, 3})
			trs[2].SendP2P(ClassPP, 2, 0, Msg{Bytes: 36, Part: Part{Sparse: sp}})
			gotP := trs[0].RecvP2P(ClassPP, 0, 2)
			if gotP.Sparse == nil || gotP.Sparse.NNZ() != 3 || gotP.Sparse.Indices[2] != 11 || gotP.Sparse.Values[1] != 2.5 {
				t.Fatalf("sparse payload mangled: %+v", gotP)
			}

			// Self-send loops back through the codec.
			trs[1].Send(ClassPP, 1, 1, Msg{Bytes: 7, Part: Part{Payload: dense}})
			if got := trs[1].Recv(ClassPP, 1, 1); got.Bytes != 7 || !got.Payload.Equal(dense, 0) {
				t.Fatal("self-send mangled")
			}

			// Stats count at the sender, modelled bytes only.
			s0 := trs[0].Stats()
			if s0.For(ClassDP).Messages != 5 || s0.For(ClassDP).Bytes != 0+1+2+3+4 {
				t.Fatalf("rank 0 ClassDP stats %+v", s0.For(ClassDP))
			}
			if s0.For(ClassEmb).Messages != 1 || s0.For(ClassEmb).Bytes != 24 {
				t.Fatalf("rank 0 ClassEmb stats %+v", s0.For(ClassEmb))
			}
			for r, tr := range trs {
				if tr.FrameBytes() <= 0 {
					t.Fatalf("rank %d framed no bytes", r)
				}
			}
		})
	}
}

func fillSeq(m *tensor.Matrix) {
	for i := range m.Data {
		m.Data[i] = float64(i)*1.5 - 3
	}
}

// TestSocketRuntimeEquivalence is the collective-level cross-transport
// oracle: a 4-rank group runs the full op mix over unix sockets — one
// Runtime per transport instance, exactly the process-per-rank shape —
// and every local result must be bit-identical (tol 0) to the same ops
// over MemTransport, with aggregated per-class Stats equal.
func TestSocketRuntimeEquivalence(t *testing.T) {
	const d = 4
	rows, cols := 7, 13 // odd: uneven chunks
	topo, err := NewTopology(d, 1)
	if err != nil {
		t.Fatal(err)
	}

	// One op script, executed identically by every rank process and by
	// the in-memory oracle. Compressor families cover the dense wire
	// runner (PowerSGD), the sparse merge-union runner (small TopK), and
	// the sparse dense-fallback runner (TopK over the density cap), and a
	// 1×3 PowerSGD channel smaller than the group, whose in-memory fold
	// leaves some members empty chunks.
	type procResult struct {
		bufs, small []*tensor.Matrix
		stats       Stats
		sp          SparseReduceStats
	}
	script := func(rt *Runtime) procResult {
		g := rt.NewGroup(ClassDP, topo.DPGroup(0))
		ge := rt.NewGroup(ClassEmb, topo.DPGroup(0))
		bufs := randBufs(d, rows, cols, 17)
		small := randBufs(d, 1, 3, 19)
		efsP := make([]*compress.ErrorFeedback, d)
		efsS := make([]*compress.ErrorFeedback, d)
		efsF := make([]*compress.ErrorFeedback, d)
		efsT := make([]*compress.ErrorFeedback, d)
		for i := range efsP {
			efsP[i] = compress.NewErrorFeedback(compress.NewPowerSGD(2, int64(100+i)))
			efsS[i] = compress.NewErrorFeedback(compress.NewTopK(0.05))
			efsF[i] = compress.NewErrorFeedback(compress.NewTopK(0.9))
			efsT[i] = compress.NewErrorFeedback(compress.NewPowerSGD(1, int64(200+i)))
		}
		reseed := func(seed int64) {
			fresh := randBufs(d, rows, cols, seed)
			for i := range bufs {
				if rt.LocalRank(g.Ranks()[i]) {
					bufs[i].CopyFrom(fresh[i])
				}
			}
		}

		g.AllReduce(bufs, 1/float64(d))
		ge.AllReduce(bufs, 1) // plain sum on the embedding class
		reseed(23)
		g.Broadcast(bufs, 2)
		for iter := 0; iter < 3; iter++ { // residuals must carry across calls
			reseed(int64(31 + iter))
			g.AllReduceCompressed(bufs, efsP, 1/float64(d))
		}
		reseed(41)
		g.AllReduceCompressed(bufs, efsS, 1/float64(d))
		reseed(43)
		g.AllReduceCompressed(bufs, efsF, 1/float64(d))
		for iter := 0; iter < 2; iter++ {
			g.AllReduceCompressed(small, efsT, 1/float64(d))
		}
		return procResult{bufs: bufs, small: small, stats: rt.Stats(), sp: rt.SparseReduceStats()}
	}

	// Oracle run over shared memory.
	memRT := NewRuntime(topo, nil, nil)
	want := script(memRT)
	memRT.Close()

	// Socket grid: one runtime per rank, each in its own goroutine.
	trs := newSocketGrid(t, "unix", d)
	results := make([]procResult, d)
	var wg sync.WaitGroup
	for r := 0; r < d; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rt := NewRuntime(topo, trs[r], nil)
			defer rt.Close()
			results[r] = script(rt)
		}(r)
	}
	wg.Wait()

	// Each rank's local buffer must match the oracle bit for bit.
	for r := 0; r < d; r++ {
		if !results[r].bufs[r].Equal(want.bufs[r], 0) {
			t.Errorf("rank %d local buffer differs from in-memory oracle", r)
		}
		if !results[r].small[r].Equal(want.small[r], 0) {
			t.Errorf("rank %d local 1x3 buffer differs from in-memory oracle", r)
		}
	}

	// Per-class Stats, summed over rank processes, must equal the
	// in-memory totals exactly — same for the sparse-reduction counters.
	var agg Stats
	var aggSp SparseReduceStats
	for r := 0; r < d; r++ {
		for c := range agg {
			agg[c].Bytes += results[r].stats[c].Bytes
			agg[c].Messages += results[r].stats[c].Messages
			agg[c].Steps += results[r].stats[c].Steps
		}
		aggSp.SparseOps += results[r].sp.SparseOps
		aggSp.DenseFallbacks += results[r].sp.DenseFallbacks
	}
	if agg != want.stats {
		t.Errorf("aggregated socket stats %+v != mem stats %+v", agg, want.stats)
	}
	if aggSp != want.sp {
		t.Errorf("aggregated sparse-reduce stats %+v != mem %+v", aggSp, want.sp)
	}
}

// TestSocketRendezvousTimeout pins that a missing peer fails the
// constructor within the dial deadline instead of hanging.
func TestSocketRendezvousTimeout(t *testing.T) {
	addrs, _ := socketAddrs(t, "unix", 2)
	start := time.Now()
	_, err := NewSocketTransport(SocketConfig{
		Network: "unix", Rank: 0, World: 2, Addrs: addrs,
		DialTimeout: 300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("rendezvous with absent peer succeeded")
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("rendezvous failure took %v", took)
	}
}

// TestSocketHandshakeRejects pins the inbound handshake validation: a
// stream announcing garbage is closed without an ack.
func TestSocketHandshakeRejects(t *testing.T) {
	// A fresh listener per case: the accept loop stops at its first bad
	// handshake, so a second probe of the same transport would "pass" by
	// never being accepted at all.
	expectReject := func(name string, hs []byte) {
		t.Helper()
		addrs, _ := socketAddrs(t, "unix", 1)
		tr, err := NewSocketTransport(SocketConfig{Network: "unix", Rank: 0, World: 1, Addrs: addrs})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		conn, err := net.Dial("unix", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(hs); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var ack [1]byte
		if _, err := io.ReadFull(conn, ack[:]); err == nil {
			t.Fatalf("%s: handshake was acked", name)
		}
	}

	bad := make([]byte, handshakeLen)
	copy(bad, "NOPE")
	expectReject("bad magic", bad)

	wrongWorld := make([]byte, handshakeLen)
	copy(wrongWorld, sockMagic[:])
	wrongWorld[4] = wireVersion
	wrongWorld[5] = 9 // world 9, expected 1
	expectReject("wrong world", wrongWorld)
}

// TestSocketHandshakeRefusesWireVersion1 pins the version gate on its
// own: the handshake a rank-1 peer of a 2-rank world would send is acked
// at wireVersion and refused — unacked, naming the version — when it
// announces version 1, whose frames (flag-selected single payloads, dense
// reconstructions) this decoder no longer reads.
func TestSocketHandshakeRefusesWireVersion1(t *testing.T) {
	victim := &SocketTransport{rank: 0, world: 2}
	for _, version := range []byte{wireVersion, 1} {
		ours, theirs := net.Pipe()
		var hs [handshakeLen]byte
		copy(hs[:4], sockMagic[:])
		hs[4] = version
		binary.LittleEndian.PutUint32(hs[5:], 2)  // world
		binary.LittleEndian.PutUint32(hs[9:], 1)  // from
		binary.LittleEndian.PutUint32(hs[13:], 0) // to
		acked := make(chan bool, 1)
		go func() {
			theirs.Write(hs[:])
			var ack [1]byte
			_, err := io.ReadFull(theirs, ack[:])
			acked <- err == nil && ack[0] == handshakeAck
		}()
		from, err := victim.handshakeIn(ours)
		ours.Close()
		got := <-acked
		theirs.Close()
		if version == wireVersion {
			if err != nil || from != 1 || !got {
				t.Fatalf("current version: from %d, acked %v, err %v", from, got, err)
			}
			continue
		}
		if err == nil || got || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version-1 handshake: acked %v, err %v", got, err)
		}
	}
}

// TestSocketCloseIdempotent pins the clean-shutdown contract: queued
// frames flush, Close returns without hanging, and double Close is safe.
func TestSocketCloseIdempotent(t *testing.T) {
	trs := newSocketGrid(t, "unix", 2)
	trs[0].Send(ClassDP, 0, 1, Msg{Bytes: 10})
	if got := trs[1].Recv(ClassDP, 1, 0); got.Bytes != 10 {
		t.Fatalf("bytes %d", got.Bytes)
	}
	done := make(chan struct{})
	go func() {
		trs[0].Close()
		trs[1].Close()
		trs[0].Close() // idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung")
	}
}

// TestSocketErrWhileStreamFails polls Err from the test goroutine while a
// reader goroutine records the failure of a stream cut in mid-run — the
// two sides of the failure field, which -race requires to be ordered.
func TestSocketErrWhileStreamFails(t *testing.T) {
	trs := newSocketGrid(t, "unix", 2)
	trs[1].Send(ClassDP, 1, 0, Msg{Bytes: 10})
	if got := trs[0].Recv(ClassDP, 0, 1); got.Bytes != 10 {
		t.Fatalf("bytes %d", got.Bytes)
	}
	if err := trs[0].Err(); err != nil {
		t.Fatalf("healthy transport reports %v", err)
	}
	// Close rank 0's accepted streams under its readers: not a clean EOF
	// at a frame boundary, so the reader must report it.
	trs[0].inMu.Lock()
	for _, c := range trs[0].inConns {
		c.Close()
	}
	trs[0].inMu.Unlock()
	deadline := time.Now().Add(30 * time.Second)
	for trs[0].Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("stream failure never surfaced through Err")
		}
		runtime.Gosched()
	}
}

// TestCoordinatorBarriers drives the two-barrier protocol end to end
// with in-process clients.
func TestCoordinatorBarriers(t *testing.T) {
	const world = 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(world, ln)
	defer coord.Close()

	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			peer, peers, err := JoinCoordinator("tcp", coord.Addr(), r, world, fmt.Sprintf("addr-%d", r), 10*time.Second)
			if err != nil {
				errs[r] = err
				return
			}
			for i, p := range peers {
				if p != fmt.Sprintf("addr-%d", i) {
					errs[r] = fmt.Errorf("peer table %v", peers)
					return
				}
			}
			rep := RankReport{LossSum: float64(r) * 1.25, FrameBytes: int64(1000 * r)}
			rep.Stats[ClassDP].Bytes = int64(10 * r)
			errs[r] = peer.Report(r, rep, 10*time.Second)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	reports, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for r, rep := range reports {
		if rep.LossSum != float64(r)*1.25 || rep.FrameBytes != int64(1000*r) || rep.Stats[ClassDP].Bytes != int64(10*r) {
			t.Fatalf("rank %d report %+v", r, rep)
		}
	}
}

// TestCoordinatorRejectsBadJoin pins fail-fast on protocol violations.
func TestCoordinatorRejectsBadJoin(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(2, ln)
	defer coord.Close()

	// World mismatch: the join must error, and the run must fail.
	if _, _, err := JoinCoordinator("tcp", coord.Addr(), 0, 5, "x", 5*time.Second); err == nil {
		t.Fatal("world-mismatch join succeeded")
	}
	if _, err := coord.Wait(); err == nil {
		t.Fatal("coordinator survived world mismatch")
	}
}
