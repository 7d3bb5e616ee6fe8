package collective

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/tensor"
)

// rawPeerGrid rendezvouses a real rank-0 SocketTransport (the victim)
// with a hand-driven rank 1: the test owns both of rank 1's streams as
// plain connections, so it can put any bytes it likes on the victim's
// inbound stream. peer is that stream (rank 1 → rank 0).
func rawPeerGrid(t *testing.T, ioTimeout time.Duration) (victim *SocketTransport, peer net.Conn) {
	t.Helper()
	addrs, _ := socketAddrs(t, "unix", 2)
	ln, err := net.Listen("unix", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })

	type built struct {
		tr  *SocketTransport
		err error
	}
	done := make(chan built, 1)
	go func() {
		tr, err := NewSocketTransport(SocketConfig{
			Network: "unix", Rank: 0, World: 2, Addrs: addrs,
			DialTimeout: 20 * time.Second, IOTimeout: ioTimeout,
		})
		done <- built{tr, err}
	}()

	// Rank 1's inbound half: accept the victim's stream and ack its
	// handshake. The stream is held open (and drained by nobody — the
	// victim sends nothing in these tests) until the test ends.
	in, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	var hs [handshakeLen]byte
	if _, err := io.ReadFull(in, hs[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Write([]byte{handshakeAck}); err != nil {
		t.Fatal(err)
	}

	// Rank 1's outbound half: dial the victim and announce rank 1.
	for deadline := time.Now().Add(20 * time.Second); ; {
		if peer, err = net.Dial("unix", addrs[0]); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial victim: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Cleanup(func() { peer.Close() })
	copy(hs[:4], sockMagic[:])
	hs[4] = wireVersion
	binary.LittleEndian.PutUint32(hs[5:], 2)
	binary.LittleEndian.PutUint32(hs[9:], 1)
	binary.LittleEndian.PutUint32(hs[13:], 0)
	if _, err := peer.Write(hs[:]); err != nil {
		t.Fatal(err)
	}
	var ack [1]byte
	if _, err := io.ReadFull(peer, ack[:]); err != nil || ack[0] != handshakeAck {
		t.Fatalf("victim did not ack the handshake: %v %#x", err, ack[0])
	}

	b := <-done
	if b.err != nil {
		t.Fatal(b.err)
	}
	t.Cleanup(func() { b.tr.Close() })
	return b.tr, peer
}

// waitErr polls the transport's failure field until it is set.
func waitErr(t *testing.T, tr *SocketTransport, within time.Duration) error {
	t.Helper()
	for deadline := time.Now().Add(within); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if err := tr.Err(); err != nil {
			return err
		}
	}
	t.Fatalf("transport failure did not surface within %v", within)
	return nil
}

// TestSocketLyingLengthPrefixDoesNotAllocate pins the read-side bound: a
// peer that announces a maximal frame and sends none of it fails the
// transport at the cost of one read step, not of the gigabyte claimed —
// the body buffer only grows as bytes actually arrive.
func TestSocketLyingLengthPrefixDoesNotAllocate(t *testing.T) {
	victim, peer := rawPeerGrid(t, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], maxFrameBody)
	if _, err := peer.Write(prefix[:]); err != nil {
		t.Fatal(err)
	}
	peer.Close()
	err := waitErr(t, victim, 10*time.Second)
	runtime.ReadMemStats(&after)
	if !strings.Contains(err.Error(), "frame body") {
		t.Fatalf("unexpected failure: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
		t.Fatalf("a 4-byte lie cost %d bytes of allocation", grew)
	}
}

// TestSocketStalledPeerSurfacesWithinIOTimeout pins the bounded-time
// failure path: a peer that goes silent halfway through a frame body
// turns a blocked Recv into the transport's error about one IOTimeout
// later — never a hang — after which Err reports it, Close returns, and
// every goroutine the transport started is gone.
func TestSocketStalledPeerSurfacesWithinIOTimeout(t *testing.T) {
	base := runtime.NumGoroutine()
	victim, peer := rawPeerGrid(t, 200*time.Millisecond)

	dense := tensor.New(4, 4)
	frame := appendFrame(nil, ClassDP, frameRing, 1, 0, Msg{Bytes: 32, Part: Part{Payload: dense}, Pooled: true})
	if _, err := peer.Write(frame[:4+(len(frame)-4)/2]); err != nil {
		t.Fatal(err)
	}

	recvErr := make(chan string, 1)
	start := time.Now()
	go func() {
		defer func() { recvErr <- fmt.Sprint(recover()) }()
		victim.Recv(ClassDP, 0, 1)
	}()
	select {
	case msg := <-recvErr:
		if !strings.Contains(msg, "failed socket transport") {
			t.Fatalf("blocked Recv ended with %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Recv never returned")
	}
	if took := time.Since(start); took > 1500*time.Millisecond {
		t.Fatalf("a 200ms IOTimeout took %v to surface", took)
	}
	if victim.Err() == nil {
		t.Fatal("Err not set after the failure")
	}

	closed := make(chan struct{})
	go func() { victim.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after the failure")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d: the failed transport left some behind", base, runtime.NumGoroutine())
		}
	}
}

// TestSocketFrameSteadyStateAllocs pins the per-frame overhead of the
// socket path: once buffers, queues and the decode pool are warm, sending
// a pooled dense frame and receiving it costs at most 2 allocations (the
// buffered reader, recycled buffer boxes and ring queues leave only the
// runtime's own odd timer or poller allocation).
func TestSocketFrameSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the frame scratch is a sync.Pool, which drops Puts at random under -race")
	}
	trs := newSocketGrid(t, "unix", 2)
	pool := tensor.NewPool()
	trs[1].SetDecodePool(pool)
	dense := tensor.New(8, 8)
	fillSeq(dense)
	roundTrip := func() {
		trs[0].Send(ClassDP, 0, 1, Msg{Bytes: 128, Part: Part{Payload: dense}, Pooled: true})
		pool.Put(trs[1].Recv(ClassDP, 1, 0).Payload)
	}
	for i := 0; i < 32; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(200, roundTrip); n > 2 {
		t.Fatalf("steady-state socket send+recv allocates %v per frame, want ≤ 2", n)
	}
}
