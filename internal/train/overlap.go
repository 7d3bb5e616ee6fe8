package train

import (
	"time"

	"repro/internal/obs"
)

// Bucketed DP synchronization on the collective runtime: the paper's
// headline property is that compressed communication hides under
// compute, and this file is where the trainer actually does it. The
// compiled plan carves each stage's gradients into buckets
// (reverse-backward order), and issueStageBuckets puts one stage's
// buckets on the wire — one asynchronous bucket all-reduce each — on the
// collective runtime's rank workers.
//
// Under overlapped sync (the default) a stage issues during the backward
// pass, the moment its gradients are final on every DP group, while
// other stages keep computing on the rank goroutines. Under blocking
// sync the iteration goroutine issues every stage right after the rank
// goroutines join — the same handles, issued at the join. Either way waitDPSync
// drains every handle just before the optimizer step.
//
// The bucket is the unit of issue, wait, trace span and accounting. No
// overlap is lost to fusing a bucket's channels into one operation: they
// all become issuable at the same instant — when the stage's last rank
// finishes backward — so there was never a moment at which one could
// have been on the wire ahead of another.
//
// Bit-identity between the two modes and with the reference path holds
// because neither overlap nor bucketing changes any channel's
// deterministic flat-rank-order reduction — only when it is issued and
// which message its pieces travel in — and each (stage, group, grad)
// error-feedback compressor is still driven exactly once per iteration.

// dpStageReady marks one DP group's stage-s gradients final. Under
// overlapped sync the last group to arrive issues the stage's buckets.
func (t *Trainer) dpStageReady(s int) {
	if t.cfg.DPSync == DPSyncOverlapped && t.cfg.DPGroups > 1 && t.coll.arrivals[s].Add(-1) == 0 {
		t.issueStageBuckets(s)
	}
}

// issueStageBuckets puts stage s's buckets on the wire in the plan's
// reverse-backward order — one ring over each bucket's dense gradients,
// one all-gather of its compressed ones' payloads — recording the
// in-flight handles for waitDPSync. It is the only place DP buckets are
// issued: by the rank goroutine that arrived last for the stage under
// overlapped sync, by the iteration goroutine under blocking sync.
// Stages issue on
// disjoint rank sets, so concurrent issuers never contend.
func (t *Trainer) issueStageBuckets(s int) {
	t.exec.dp[s] = t.plan.DPCompressed(s)
	cs := t.coll
	scale := 1 / float64(t.cfg.DPGroups)
	for bi, chans := range cs.buckets[s] {
		cs.handles[s][bi] = cs.dp[s].AllReduceBucketAsync(chans, scale)
	}
}

// waitDPSync completes the iteration's DP sync on the runtime: under
// blocking sync it first issues every stage's buckets, then it drains
// every in-flight bucket, charging its executed wire volume to its slot
// in the exec log. The wall time of both is the exposed communication.
// Called from the iteration goroutine once the rank goroutines have
// joined — the join is the happens-before edge to the handles a rank
// goroutine issued.
func (t *Trainer) waitDPSync() {
	start := time.Now()
	if t.cfg.DPSync == DPSyncBlocking {
		for s := range t.coll.handles {
			t.issueStageBuckets(s)
		}
	}
	for s, handles := range t.coll.handles {
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
