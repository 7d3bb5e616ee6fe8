package collective

import (
	"testing"
)

func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	f()
}

// TestMemTransportDepthClamp pins the p2pDepth<2 clamp documented on
// NewMemTransportDepth: degenerate depths are raised to 2, so a single
// send-ahead message per direction can never deadlock.
func TestMemTransportDepthClamp(t *testing.T) {
	for _, depth := range []int{-3, 0, 1, 2} {
		tr := NewMemTransportDepth(2, depth)
		for _, c := range Classes() {
			if got := cap(tr.p2p[c][tr.pairIdx(0, 1)]); got != 2 {
				t.Fatalf("depth %d class %v: p2p capacity %d, want clamped 2", depth, c, got)
			}
		}
		// The clamped queue must absorb two sends without a receiver.
		tr.SendP2P(ClassPP, 0, 1, Msg{Bytes: 1})
		tr.SendP2P(ClassPP, 0, 1, Msg{Bytes: 2})
		if m := tr.RecvP2P(ClassPP, 1, 0); m.Bytes != 1 {
			t.Fatalf("depth %d: got bytes %d, want 1", depth, m.Bytes)
		}
		tr.RecvP2P(ClassPP, 1, 0)
	}
	// Above the clamp the requested depth is honored.
	tr := NewMemTransportDepth(2, 5)
	if got := cap(tr.p2p[ClassDP][tr.pairIdx(1, 0)]); got != 5 {
		t.Fatalf("p2p capacity %d, want 5", got)
	}
}
