package train

import (
	"sync/atomic"
	"time"

	"repro/internal/collective"
	"repro/internal/obs"
)

// Overlapped bucketed DP synchronization: the paper's headline property
// is that compressed communication hides under compute, and this file is
// where the trainer actually does it. The compiled plan carves each
// stage's gradients into buckets (reverse-backward order); during the
// backward pass, the moment a stage's gradients are final on every DP
// group, that stage's buckets are issued — one asynchronous bucket
// all-reduce each — on the collective runtime's rank workers, which are
// idle during the micro-batch phase, while other stages keep computing.
// TrainIteration waits on every handle just before the optimizer step.
//
// The bucket is the unit of issue, wait, trace span and accounting. No
// overlap is lost to fusing a bucket's channels into one operation: they
// all become issuable at the same instant — when the stage's last rank
// finishes backward — so there was never a moment at which one could
// have been on the wire ahead of another.
//
// Bit-identity with the blocking and reference paths holds because
// neither overlap nor bucketing changes any channel's deterministic
// flat-rank-order reduction — only when it is issued and which message
// its pieces travel in — and each (stage, group, grad) error-feedback
// compressor is still driven exactly once per iteration.

// dpOverlap is the per-trainer coordination state.
type dpOverlap struct {
	// arrivals[s] counts the DP groups executing in this process whose
	// stage-s gradients are not yet final this iteration; the goroutine
	// that decrements it to zero issues the stage's buckets. Reset each
	// iteration from localGroups.
	arrivals []atomic.Int32
	// localGroups[s] is the number of stage-s DP ranks this process
	// executes — DPGroups in a single-process run, exactly one per local
	// stage under Dist, where the stage's buckets issue the moment its
	// sole local rank finishes (the remote members' zero-local-rank group
	// ops complete immediately, so issue order cannot deadlock).
	localGroups []int32
	// handles[s][b] is stage s's in-flight bucket b. Written by the
	// stage's issuing goroutine, read by waitDPSync after every engine
	// goroutine has joined — the engine's WaitGroup is the
	// happens-before edge.
	handles [][]*collective.Pending
}

// newDPOverlap sizes the coordinator from the trainer's compiled plan.
func newDPOverlap(t *Trainer) *dpOverlap {
	ov := &dpOverlap{
		arrivals:    make([]atomic.Int32, t.cfg.Stages),
		localGroups: make([]int32, t.cfg.Stages),
		handles:     make([][]*collective.Pending, t.cfg.Stages),
	}
	for s := 0; s < t.cfg.Stages; s++ {
		ov.handles[s] = make([]*collective.Pending, t.plan.BucketCount(s))
		for d := 0; d < t.cfg.DPGroups; d++ {
			if t.localRank(d, s) {
				ov.localGroups[s]++
			}
		}
	}
	return ov
}

// reset re-arms the arrival counters for a new iteration.
func (ov *dpOverlap) reset() {
	for s := range ov.arrivals {
		ov.arrivals[s].Store(ov.localGroups[s])
	}
}

// dpStageReady marks one DP group's stage-s gradients final. The last
// group to arrive issues the stage's bucketed all-reduces. No-op unless
// overlapped sync is active.
func (t *Trainer) dpStageReady(s int) {
	if t.ov == nil {
		return
	}
	if t.ov.arrivals[s].Add(-1) == 0 {
		t.issueStageBuckets(s)
	}
}

// issueStageBuckets puts stage s's buckets on the wire, one operation
// each in the plan's reverse-backward order, recording the in-flight
// handles for waitDPSync. Runs on whichever engine goroutine arrived last for
// this stage; stages issue on disjoint rank sets, so concurrent issuers
// never contend.
func (t *Trainer) issueStageBuckets(s int) {
	t.exec.dp[s] = t.plan.DPCompressed(s)
	for bi := range t.ov.handles[s] {
		t.ov.handles[s][bi] = t.coll.issueBucket(t, s, bi)
	}
}

// waitDPSync drains every in-flight bucket, charging its executed wire
// volume to its slot in the exec log and the blocked wall time to the
// exposed-communication clock. Called from the iteration goroutine once
// the engines have joined.
func (t *Trainer) waitDPSync() {
	start := time.Now()
	for s, handles := range t.ov.handles {
		for bi, h := range handles {
			if h != nil {
				t.exec.dpBuckets[s][bi] = h.WaitBytes()
				handles[bi] = nil
			}
		}
	}
	t.recordDPDrain(time.Since(start).Nanoseconds())
}

// recordDPDrain charges blocked DP-sync wall time to the exposed-
// communication counter and records the matching drain span. One elapsed
// value feeds both — span end is recomputed as now and the start derived
// from it — so the trace's summed drain durations equal DPSyncExposedNs
// exactly, never merely approximately (the reconciliation's tol-0 pin).
func (t *Trainer) recordDPDrain(elapsedNs int64) {
	t.dpWait.Add(elapsedNs)
	if rec := t.rec; rec != nil {
		end := rec.Now()
		rec.RecordSpan(t.traceDriver(), obs.PhaseDPDrain, obs.LinkDP, end-elapsedNs, end, 0, -1, -1, -1)
	}
}
