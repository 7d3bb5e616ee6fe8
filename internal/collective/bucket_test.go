package collective

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/tensor"
)

// chanSpec describes one channel of a test bucket: a shape and, for a
// compressed channel, the compressor family every member runs (member i
// seeded spec.Seed+i).
type chanSpec struct {
	rows, cols int
	comp       *compress.Spec
}

func denseCh(rows, cols int) chanSpec { return chanSpec{rows: rows, cols: cols} }

func compCh(rows, cols int, spec compress.Spec) chanSpec {
	return chanSpec{rows: rows, cols: cols, comp: &spec}
}

func powerSGD(rank int) compress.Spec {
	return compress.Spec{Name: "powersgd", Rank: rank, Seed: 50}
}

func topK(fraction float64) compress.Spec { return compress.Spec{Name: "topk", Fraction: fraction} }

// bucketCases are the bucket shapes of the tentpole oracle.
var bucketCases = []struct {
	name  string
	chans []chanSpec
}{
	{"vectors only", []chanSpec{denseCh(1, 32), denseCh(1, 32), denseCh(1, 7), denseCh(1, 32)}},
	{"matrices only", []chanSpec{denseCh(8, 8), denseCh(6, 10), denseCh(12, 4)}},
	{"dense + powersgd r1 r2 r4", []chanSpec{
		denseCh(1, 16), compCh(8, 6, powerSGD(1)), denseCh(4, 4), compCh(10, 8, powerSGD(2)), compCh(9, 9, powerSGD(4)),
	}},
	{"dense + topk union and fallback", []chanSpec{
		denseCh(1, 9), compCh(10, 10, topK(0.05)), compCh(6, 6, topK(0.9)), denseCh(3, 5),
	}},
	{"dense + terngrad", []chanSpec{
		denseCh(1, 12), compCh(6, 7, compress.Spec{Name: "terngrad", Seed: 9}), denseCh(2, 5),
	}},
	{"elements not divisible by D", []chanSpec{denseCh(1, 5), denseCh(3, 3), denseCh(1, 3)}}, // 17 elements
	{"fewer dense elements than D", []chanSpec{denseCh(1, 1), compCh(5, 4, powerSGD(2))}},
	{"single dense channel", []chanSpec{denseCh(7, 13)}},
	{"single compressed channel", []chanSpec{compCh(7, 13, powerSGD(2))}},
	// Members past the channel's element count fold empty chunks.
	{"compressed channel smaller than D", []chanSpec{compCh(1, 3, powerSGD(1))}},
	// One kept coordinate per member: the 1×24 channel merges under the
	// density cap with most chunks empty, and the 1×1 channel's only
	// coordinate lands in member 0's chunk (scatter-add past the cap).
	{"topk kept coordinates in few chunks", []chanSpec{compCh(1, 24, topK(0.02)), compCh(1, 1, topK(1))}},
}

// testBucket is one materialized bucket: its channel list plus, per
// channel, the member buffers (aliased by the Channels).
type testBucket struct {
	chans []Channel
}

// newTestBucket builds d-member channels for specs with fresh, identically
// seeded compressors: two buckets built from the same arguments evolve
// identical error-feedback state when driven with the same inputs.
func newTestBucket(d int, specs []chanSpec, pool *tensor.Pool) *testBucket {
	b := &testBucket{chans: make([]Channel, len(specs))}
	for ci, sp := range specs {
		ch := &b.chans[ci]
		ch.Bufs = make([]*tensor.Matrix, d)
		for i := range ch.Bufs {
			ch.Bufs[i] = tensor.New(sp.rows, sp.cols)
		}
		if sp.comp == nil {
			continue
		}
		ch.EFs = make([]*compress.ErrorFeedback, d)
		for i := range ch.EFs {
			spec := *sp.comp
			spec.Seed += int64(100*ci + i)
			ch.EFs[i] = compress.NewErrorFeedback(compress.MustBuild(spec))
			if pool != nil {
				ch.EFs[i].SetPool(pool)
			}
		}
	}
	return b
}

// load fills every member buffer deterministically from seed. Only the
// members local reports are written — a process-per-rank run owns just
// its own rank's buffers.
func (b *testBucket) load(seed int64, local func(member int) bool) {
	for ci := range b.chans {
		bufs := b.chans[ci].Bufs
		fresh := randBufs(len(bufs), bufs[0].Rows, bufs[0].Cols, seed+int64(31*ci))
		for i := range bufs {
			if local(i) {
				bufs[i].CopyFrom(fresh[i])
			}
		}
	}
}

// reducePerChannel is the pre-bucket path, kept as the oracle: one ring
// operation per channel.
func (b *testBucket) reducePerChannel(g *Group, scale float64) {
	for _, ch := range b.chans {
		if ch.EFs != nil {
			g.AllReduceCompressed(ch.Bufs, ch.EFs, scale)
		} else {
			g.AllReduce(ch.Bufs, scale)
		}
	}
}

// reduceSerial is the flat-order reference reduction, no runtime at all:
// zero + Σ members in order (compressed channels summing each member's
// error-feedback reconstruction) + scale, the result given to everyone.
func (b *testBucket) reduceSerial(scale float64) {
	for _, ch := range b.chans {
		sum := tensor.New(ch.Bufs[0].Rows, ch.Bufs[0].Cols)
		for i, buf := range ch.Bufs {
			if ch.EFs != nil {
				_, recon := ch.EFs[i].CompressWithFeedback(buf)
				sum.Add(recon)
			} else {
				sum.Add(buf)
			}
		}
		sum.Scale(scale)
		for _, buf := range ch.Bufs {
			buf.CopyFrom(sum)
		}
	}
}

// equal reports the first buffer of b that differs from o's at tol 0,
// over the members local reports.
func (b *testBucket) equal(o *testBucket, local func(member int) bool) error {
	for ci := range b.chans {
		for i, buf := range b.chans[ci].Bufs {
			if local(i) && !buf.Equal(o.chans[ci].Bufs[i], 0) {
				return fmt.Errorf("channel %d member %d differs", ci, i)
			}
		}
	}
	return nil
}

func allMembers(int) bool { return true }

// closedForm is leg 1's per-bucket message and step count.
func closedForm(d int, specs []chanSpec) (messages, steps int64) {
	var dense, comp bool
	for _, sp := range specs {
		if sp.comp == nil {
			dense = true
		} else {
			comp = true
		}
	}
	if dense {
		messages += int64(d * 2 * (d - 1))
		steps += int64(2 * (d - 1))
	}
	if comp {
		messages += int64(d * (d - 1))
		steps += int64(d - 1)
	}
	return messages, steps
}

// TestBucketAllReduceMatchesPerChannelAndSerial is the tentpole's
// collective-level oracle, at tol 0: over several rounds (residuals and
// warm starts carry), two bucket operations in flight on one group leave
// exactly the buffers the per-channel operations they replace leave, and
// the runtime-free serial flat-order reduction leaves — over MemTransport
// and, rank by rank, over an in-process unix mesh — while the transports
// agree on per-class bytes, messages and steps: the per-channel ops'
// bytes, and the bucket closed form's messages and steps.
func TestBucketAllReduceMatchesPerChannelAndSerial(t *testing.T) {
	const rounds, inFlight = 3, 2
	for _, d := range []int{2, 3, 4, 8} {
		if testing.Short() && d > 4 {
			continue
		}
		topo, err := NewTopology(d, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range bucketCases {
			t.Run(fmt.Sprintf("d%d/%s", d, tc.name), func(t *testing.T) {
				scale := 1 / float64(d)

				// script drives inFlight buckets per round on one group and
				// returns them with the runtime's traffic.
				script := func(rt *Runtime) ([]*testBucket, Stats, SparseReduceStats) {
					g := rt.NewGroup(ClassDP, topo.DPGroup(0))
					local := func(m int) bool { return rt.LocalRank(g.Ranks()[m]) }
					buckets := make([]*testBucket, inFlight)
					for i := range buckets {
						buckets[i] = newTestBucket(d, tc.chans, nil)
					}
					handles := make([]*Pending, inFlight)
					for round := 0; round < rounds; round++ {
						for i, b := range buckets {
							b.load(int64(1000*round+10*i), local)
							handles[i] = g.AllReduceBucketAsync(b.chans, scale)
						}
						for _, h := range handles {
							h.Wait()
						}
					}
					return buckets, rt.Stats(), rt.SparseReduceStats()
				}

				memRT := NewRuntime(topo, nil, nil)
				got, memStats, memSp := script(memRT)
				memRT.Close()

				// Oracles: the same inputs through one op per channel, and
				// through no runtime at all.
				perChanRT := NewRuntime(topo, nil, nil)
				perChanGrp := perChanRT.NewGroup(ClassDP, topo.DPGroup(0))
				for i := 0; i < inFlight; i++ {
					perChan := newTestBucket(d, tc.chans, nil)
					serial := newTestBucket(d, tc.chans, nil)
					for round := 0; round < rounds; round++ {
						perChan.load(int64(1000*round+10*i), allMembers)
						perChan.reducePerChannel(perChanGrp, scale)
						serial.load(int64(1000*round+10*i), allMembers)
						serial.reduceSerial(scale)
					}
					if err := got[i].equal(perChan, allMembers); err != nil {
						t.Fatalf("bucket %d vs per-channel ops: %v", i, err)
					}
					if err := got[i].equal(serial, allMembers); err != nil {
						t.Fatalf("bucket %d vs serial reduction: %v", i, err)
					}
				}
				perChanStats := perChanRT.Stats().For(ClassDP)
				perChanRT.Close()

				dp := memStats.For(ClassDP)
				if dp.Bytes != perChanStats.Bytes {
					t.Fatalf("bucket ops moved %d bytes, the per-channel ops %d", dp.Bytes, perChanStats.Bytes)
				}
				msgs, steps := closedForm(d, tc.chans)
				if want := msgs * rounds * inFlight; dp.Messages != want {
					t.Fatalf("%d messages, closed form says %d", dp.Messages, want)
				}
				if want := steps * rounds * inFlight; dp.Steps != want {
					t.Fatalf("%d steps, closed form says %d", dp.Steps, want)
				}
				if dp.Messages > perChanStats.Messages || dp.Steps > perChanStats.Steps {
					t.Fatalf("bucketing raised messages/steps: %+v vs per-channel %+v", dp, perChanStats)
				}

				// The unix mesh: one runtime per rank, each running the
				// same script; every rank's own buffers must match.
				trs := newSocketGrid(t, "unix", d)
				results := make([][]*testBucket, d)
				stats := make([]Stats, d)
				sps := make([]SparseReduceStats, d)
				var wg sync.WaitGroup
				for r := 0; r < d; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						rt := NewRuntime(topo, trs[r], nil)
						defer rt.Close()
						results[r], stats[r], sps[r] = script(rt)
					}(r)
				}
				wg.Wait()
				var agg Stats
				var aggSp SparseReduceStats
				for r := 0; r < d; r++ {
					for i := range got {
						if err := results[r][i].equal(got[i], func(m int) bool { return m == r }); err != nil {
							t.Fatalf("unix rank %d bucket %d vs mem: %v", r, i, err)
						}
					}
					for c := range agg {
						agg[c].Bytes += stats[r][c].Bytes
						agg[c].Messages += stats[r][c].Messages
						agg[c].Steps += stats[r][c].Steps
					}
					aggSp.SparseOps += sps[r].SparseOps
					aggSp.DenseFallbacks += sps[r].DenseFallbacks
				}
				if agg != memStats {
					t.Fatalf("aggregated unix stats %+v != mem stats %+v", agg, memStats)
				}
				if aggSp != memSp {
					t.Fatalf("aggregated unix sparse-reduce stats %+v != mem %+v", aggSp, memSp)
				}
			})
		}
	}
}

// TestBucketSparseChannelsTakeBothReductions guards the TopK case's
// setup: its two sparse channels must land on opposite sides of the
// density cap, or the oracle above would not cover both reductions.
func TestBucketSparseChannelsTakeBothReductions(t *testing.T) {
	const d = 4
	rt := flatRuntime(t, d)
	g := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))
	for _, tc := range bucketCases {
		if tc.name != "dense + topk union and fallback" {
			continue
		}
		b := newTestBucket(d, tc.chans, nil)
		b.load(1, allMembers)
		g.AllReduceBucket(b.chans, 0.25)
		if sp := rt.SparseReduceStats(); sp.SparseOps != 1 || sp.DenseFallbacks != 1 {
			t.Fatalf("sparse reductions %+v, want one merge-union and one fallback", sp)
		}
		return
	}
	t.Fatal("topk bucket case missing")
}

// TestBucketFactorFramesShrinkTheWire pins leg 3 where it is visible: the
// same compressed bucket frames fewer bytes than its dense twin over real
// sockets, by about the factor the payloads' element counts predict.
func TestBucketFactorFramesShrinkTheWire(t *testing.T) {
	const d = 4
	topo, err := NewTopology(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	framed := func(specs []chanSpec) int64 {
		trs := newSocketGrid(t, "unix", d)
		var wg sync.WaitGroup
		for r := 0; r < d; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rt := NewRuntime(topo, trs[r], nil)
				defer rt.Close()
				g := rt.NewGroup(ClassDP, topo.DPGroup(0))
				b := newTestBucket(d, specs, nil)
				b.load(5, func(m int) bool { return m == r })
				g.AllReduceBucket(b.chans, 0.25)
			}(r)
		}
		wg.Wait()
		var total int64
		for _, tr := range trs {
			total += tr.FrameBytes()
		}
		return total
	}
	dense := framed([]chanSpec{denseCh(32, 32), denseCh(32, 32)})
	lowRank := framed([]chanSpec{compCh(32, 32, powerSGD(2)), compCh(32, 32, powerSGD(2))})
	// Dense: 2·(D−1) hops of 2·1024 float64 = 98,304 payload bytes.
	// Factors: D·(D−1) hops of 2·128 float64 = 24,576 payload bytes.
	if lowRank*3 > dense {
		t.Fatalf("factor frames %d B not well below dense frames %d B", lowRank, dense)
	}
}

// TestBucketSteadyStateZeroAllocs pins the allocation contract on the
// new operation: a warmed mixed bucket, two in flight, allocates nothing
// over MemTransport.
func TestBucketSteadyStateZeroAllocs(t *testing.T) {
	const d = 4
	rt := flatRuntime(t, d)
	g := rt.NewGroup(ClassDP, rt.Topology().DPGroup(0))
	specs := []chanSpec{denseCh(1, 32), compCh(16, 16, powerSGD(2)), denseCh(8, 8), compCh(12, 12, topK(0.05)), denseCh(1, 5)}
	a, b := newTestBucket(d, specs, rt.Pool()), newTestBucket(d, specs, rt.Pool())
	a.load(1, allMembers)
	b.load(2, allMembers)
	handles := make([]*Pending, 2)
	pass := func() {
		handles[0] = g.AllReduceBucketAsync(a.chans, 0.25)
		handles[1] = g.AllReduceBucketAsync(b.chans, 0.25)
		handles[0].Wait()
		handles[1].Wait()
	}
	for i := 0; i < 3; i++ { // descriptors, residuals, payload and pool buffers
		pass()
	}
	if n := testing.AllocsPerRun(20, pass); n != 0 {
		t.Fatalf("steady-state bucket all-reduce allocates (%v allocs/op)", n)
	}
}

// TestBucketValidation pins the issue-time checks of the bucket form.
func TestBucketValidation(t *testing.T) {
	rt := flatRuntime(t, 2)
	g := rt.NewGroup(ClassDP, []int{0, 1})
	efs := newTestBucket(2, []chanSpec{compCh(2, 2, powerSGD(1))}, nil).chans[0].EFs
	for name, chans := range map[string][]Channel{
		"empty bucket":   nil,
		"buf count":      {{Bufs: randBufs(1, 2, 2, 1)}},
		"shape mismatch": {{Bufs: []*tensor.Matrix{tensor.New(2, 2), tensor.New(2, 3)}}},
		"ef count":       {{Bufs: randBufs(2, 2, 2, 1), EFs: efs[:1]}},
	} {
		expectPanic(t, name, func() { g.AllReduceBucket(chans, 1) })
	}
}

// TestFileRejectsMismatchedParts pins the receive-side checks of a
// payload batch: the fold reads raw element ranges, so file must refuse
// a part whose count, form or shape does not fit its channel — a
// transposed part of the right size included.
func TestFileRejectsMismatchedParts(t *testing.T) {
	const rows, cols = 4, 6
	rt := flatRuntime(t, 2)
	g := rt.NewGroup(ClassDP, []int{0, 1})
	// Channel 0 reduces dense reconstructions (PowerSGD), channel 1
	// sparse payloads (TopK).
	b := newTestBucket(2, []chanSpec{compCh(rows, cols, powerSGD(2)), compCh(rows, cols, topK(0.25))}, nil)
	sparse := func(r, c int) *tensor.Sparse {
		s := tensor.NewSparse(r, c, 1)
		s.Indices, s.Values = append(s.Indices, 1), append(s.Values, 0.5)
		return s
	}
	dense := Part{Payload: tensor.New(rows, cols)}
	sp := Part{Sparse: sparse(rows, cols)}
	for _, tc := range []struct {
		name  string
		parts []Part
		ok    bool
	}{
		{"dense and sparse parts", []Part{dense, sp}, true},
		{"factor pair", []Part{{P: tensor.New(rows, 2), Q: tensor.New(cols, 2)}, sp}, true},
		{"too few parts", []Part{dense}, false},
		{"too many parts", []Part{dense, sp, sp}, false},
		{"sparse part on a dense channel", []Part{sp, sp}, false},
		{"dense part on a sparse channel", []Part{dense, dense}, false},
		{"transposed dense part", []Part{{Payload: tensor.New(cols, rows)}, sp}, false},
		{"transposed sparse part", []Part{dense, {Sparse: sparse(cols, rows)}}, false},
		{"factor P rows", []Part{{P: tensor.New(cols, 2), Q: tensor.New(cols, 2)}, sp}, false},
		{"factor Q rows", []Part{{P: tensor.New(rows, 2), Q: tensor.New(rows, 2)}, sp}, false},
		{"factor ranks differ", []Part{{P: tensor.New(rows, 2), Q: tensor.New(cols, 1)}, sp}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := g.getOp()
			p.chans = b.chans
			p.layout()
			msg := Msg{Part: tc.parts[0], More: tc.parts[1:]}
			defer func() {
				r := recover()
				if tc.ok && r != nil {
					t.Fatalf("valid batch refused: %v", r)
				}
				if !tc.ok {
					if s, _ := r.(string); !strings.HasPrefix(s, "collective: ") {
						t.Fatalf("want a collective: panic, got %v", r)
					}
				}
			}()
			p.file(msg, 1)
		})
	}
}
