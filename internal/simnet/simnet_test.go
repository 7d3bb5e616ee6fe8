package simnet

import (
	"math"
	"testing"
	"testing/quick"
)

func testLink() Link {
	return Link{Name: "ib", BandwidthBps: 200e9, LatencySec: 2e-6}
}

func TestTransferTime(t *testing.T) {
	l := testLink()
	// 25 GB/s effective: 25e9 bytes take 1s + latency.
	got := l.TransferTime(25e9)
	if math.Abs(got-(1+2e-6)) > 1e-9 {
		t.Fatalf("TransferTime=%v", got)
	}
	if l.TransferTime(0) != 0 {
		t.Fatal("zero bytes must be free")
	}
}

func TestAllReduceTimeFormula(t *testing.T) {
	l := Link{Name: "x", BandwidthBps: 8e9, LatencySec: 0} // 1 GB/s
	// V=1e9 bytes, R=4: vol = 2*1e9*3/4 = 1.5e9 bytes → 1.5 s.
	got := l.AllReduceTime(1e9, 4)
	if math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("AllReduceTime=%v want 1.5", got)
	}
	if l.AllReduceTime(1e9, 1) != 0 {
		t.Fatal("single-rank all-reduce is free")
	}
}

func TestEmbSyncCostMatchesEq15And16(t *testing.T) {
	// §6: C_Emb = V(3D−2)/D, C_fused = V(2D−1)/D (in transfer units, no
	// latency). For D=4 the improvement is 42.9%.
	l := Link{Name: "x", BandwidthBps: 8, LatencySec: 0} // 1 byte/s
	V := int64(100)
	D := 4
	base := l.EmbSyncBaselineTime(V, D)
	fused := l.EmbSyncFusedTime(V, D)
	wantBase := float64(V) * float64(3*D-2) / float64(D)
	wantFused := float64(V) * float64(2*D-1) / float64(D)
	if math.Abs(base-wantBase) > 1e-9 {
		t.Fatalf("baseline %v want %v", base, wantBase)
	}
	if math.Abs(fused-wantFused) > 1e-9 {
		t.Fatalf("fused %v want %v", fused, wantFused)
	}
	// The paper reports improvement as a speedup: base/fused − 1 =
	// (D−1)/(2D−1), which is 3/7 ≈ 42.9% at D=4.
	improvement := base/fused - 1
	if math.Abs(improvement-3.0/7.0) > 1e-9 {
		t.Fatalf("D=4 improvement %v want 3/7", improvement)
	}
}

func TestEmbSyncImprovementApproaches50Percent(t *testing.T) {
	l := Link{Name: "x", BandwidthBps: 8, LatencySec: 0}
	prev := 0.0
	for _, d := range []int{2, 4, 8, 16, 64, 1024} {
		imp := l.EmbSyncBaselineTime(1000, d)/l.EmbSyncFusedTime(1000, d) - 1
		if imp < prev {
			t.Fatalf("improvement not monotone at D=%d", d)
		}
		prev = imp
	}
	if math.Abs(prev-0.5) > 0.01 {
		t.Fatalf("asymptotic improvement %v want →50%%", prev)
	}
}

func TestLinkValidate(t *testing.T) {
	if (Link{Name: "ok", BandwidthBps: 1}).Validate() != nil {
		t.Fatal("valid link rejected")
	}
	if (Link{Name: "bad", BandwidthBps: 0}).Validate() == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if (Link{Name: "bad", BandwidthBps: 1, LatencySec: -1}).Validate() == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestGraphChain(t *testing.T) {
	g := NewGraph()
	a := g.Add("a", "compute", 1, "dev0")
	b := g.Add("b", "compute", 2, "dev0")
	mk, err := g.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 3 {
		t.Fatalf("makespan %v want 3 (resource serialization)", mk)
	}
	if a.Finish() != 1 || b.Start() != 1 {
		t.Fatalf("resource order wrong: a=%v..%v b=%v..%v", a.Start(), a.Finish(), b.Start(), b.Finish())
	}
}

func TestGraphParallelResources(t *testing.T) {
	g := NewGraph()
	g.Add("a", "c", 5, "dev0")
	g.Add("b", "c", 3, "dev1")
	mk, err := g.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 5 {
		t.Fatalf("makespan %v want 5 (parallel devices)", mk)
	}
}

func TestGraphDependencyAcrossResources(t *testing.T) {
	g := NewGraph()
	a := g.Add("a", "c", 2, "dev0")
	x := g.Add("x", "comm", 1, "link0")
	b := g.Add("b", "c", 2, "dev1")
	g.Dep(a, x)
	g.Dep(x, b)
	mk, err := g.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 5 {
		t.Fatalf("makespan %v want 5 (2+1+2 chain)", mk)
	}
	if b.Start() != 3 {
		t.Fatalf("b starts at %v want 3", b.Start())
	}
}

func TestGraphOverlapCommWithCompute(t *testing.T) {
	// Device does two compute tasks; a transfer depending on the first
	// overlaps the second (the 1F1B hidden-communication situation).
	g := NewGraph()
	a := g.Add("a", "c", 2, "dev0")
	c2 := g.Add("c2", "c", 4, "dev0")
	x := g.Add("x", "comm", 3, "link0")
	g.Dep(a, x)
	mk, err := g.Solve()
	if err != nil {
		t.Fatal(err)
	}
	_ = c2
	if mk != 6 {
		t.Fatalf("makespan %v want 6 (comm hidden under compute)", mk)
	}
	if x.Start() != 2 || x.Finish() != 5 {
		t.Fatalf("transfer at %v..%v", x.Start(), x.Finish())
	}
}

func TestGraphCycleDetected(t *testing.T) {
	g := NewGraph()
	a := g.Add("a", "c", 1, "")
	b := g.Add("b", "c", 1, "")
	g.Dep(a, b)
	g.Dep(b, a)
	if _, err := g.Solve(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestGraphDuplicateIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := NewGraph()
	g.Add("a", "c", 1, "")
	g.Add("a", "c", 1, "")
}

func TestNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGraph().Add("a", "c", -1, "")
}

func TestTotalByLabel(t *testing.T) {
	g := NewGraph()
	g.Add("a", "fwd", 1, "d")
	g.Add("b", "fwd", 2, "d")
	g.Add("c", "bwd", 3, "d")
	sums := g.TotalByLabel()
	if sums["fwd"] != 3 || sums["bwd"] != 3 {
		t.Fatalf("label sums %v", sums)
	}
}

func TestResourceTimelineSorted(t *testing.T) {
	g := NewGraph()
	a := g.Add("a", "c", 1, "d0")
	b := g.Add("b", "c", 1, "d0")
	if _, err := g.Solve(); err != nil {
		t.Fatal(err)
	}
	tl := g.ResourceTimeline("d0")
	if len(tl) != 2 || tl[0] != a || tl[1] != b {
		t.Fatal("timeline wrong")
	}
}

// Property: makespan ≥ max resource busy time and ≥ longest single task.
func TestMakespanLowerBoundsProperty(t *testing.T) {
	f := func(durs [6]uint8) bool {
		g := NewGraph()
		var maxTask, busy0, busy1 float64
		for i, d8 := range durs {
			d := float64(d8%50) + 1
			res := "d0"
			if i%2 == 1 {
				res = "d1"
			}
			g.Add(string(rune('a'+i)), "c", d, res)
			if d > maxTask {
				maxTask = d
			}
			if res == "d0" {
				busy0 += d
			} else {
				busy1 += d
			}
		}
		mk, err := g.Solve()
		if err != nil {
			return false
		}
		lower := math.Max(maxTask, math.Max(busy0, busy1))
		return mk >= lower-1e-9 && mk <= busy0+busy1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: all-reduce time is monotone in volume and in ranks (for fixed
// volume, more ranks can only add latency steps and volume factor).
func TestAllReduceMonotoneProperty(t *testing.T) {
	l := testLink()
	f := func(v1, v2 uint32, r8 uint8) bool {
		r := int(r8%14) + 2
		lo, hi := int64(v1%1e6), int64(v2%1e6)
		if lo > hi {
			lo, hi = hi, lo
		}
		if l.AllReduceTime(lo, r) > l.AllReduceTime(hi, r)+1e-12 {
			return false
		}
		return l.AllReduceTime(hi, r) <= l.AllReduceTime(hi, r+1)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
