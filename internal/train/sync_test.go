package train

import (
	"testing"

	"repro/internal/core"
)

// TestSyncSteadyStateReusesPool asserts the zero-allocation design goal at
// the trainer level: after the first iterations warm the workspaces, the
// sync path's pool traffic is served from the pool.
//
// The invariant is a bound on misses, not hits == gets. The pipeline's
// stage ranks and the ring members are goroutines running concurrently,
// and whenever two of them
// overlap in a way they had not before, one faults in an extra same-shape
// buffer. Every such miss grows the pool's population for good, and the
// population can never exceed what a single iteration holds at once —
// which is at most the iteration's Get count. So a pool that is reused
// misses at most that many times however long it runs, while a sync path
// that lost even one buffer per iteration would miss once per iteration:
// running more iterations than one iteration has Gets separates the two.
func TestSyncSteadyStateReusesPool(t *testing.T) {
	opt := core.CBFESC()
	opt.CBRank = 2
	opt.DPRank = 2
	cfg := testConfig(opt)
	cfg.DPSync = DPSyncBlocking
	tr, err := New(cfg, testCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	tr.Train(2, nil) // warm-up: first iteration faults workspaces in
	before := tr.Pool().Stats()
	const iters = 100
	tr.Train(iters, nil)
	after := tr.Pool().Stats()
	gets := after.Gets - before.Gets
	misses := gets - (after.Hits - before.Hits)
	if gets == 0 {
		t.Fatal("pool unused on the sync path")
	}
	perIter := gets / iters
	if perIter >= iters {
		t.Fatalf("window of %d iterations cannot tell a leak from high-water growth at %d gets/iteration; lengthen it", iters, perIter)
	}
	if misses > perIter {
		t.Fatalf("steady state missed the pool %d times in %d iterations (%d gets); high-water growth is bounded by %d",
			misses, iters, gets, perIter)
	}
	if puts := after.Puts - before.Puts; puts != gets {
		t.Fatalf("steady state took %d buffers from the pool and returned %d", gets, puts)
	}
	if drops := after.Drops - before.Drops; drops != 0 {
		t.Fatalf("pool dropped %d returned buffers: a free list outgrew its cap", drops)
	}
}
