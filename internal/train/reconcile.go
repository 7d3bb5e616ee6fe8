package train

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/collective"
	"repro/internal/compress"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Executed-vs-predicted reconciliation: the executed-run trace, the
// collective transport's counters, and the simulator's plan-derived
// predictions describe the same run from three angles. ReconcileTrace
// cross-checks them — the first two must agree byte-for-byte and
// nanosecond-for-nanosecond (tolerance zero; any mismatch is a bug in
// the instrumentation or the accounting, and errors loudly), while the
// analytic prediction is reported alongside for the executed-vs-
// predicted deltas the paper's overlap analysis reasons about.

// LinkReconciliation compares one link class's wire volume across the
// three accountings.
type LinkReconciliation struct {
	Link obs.Link
	// TracedBytes sums the Bytes of every wire-bearing span on this
	// link; TransportBytes is the collective transport's counter. The
	// two must be equal — ReconcileTrace errors otherwise.
	TracedBytes    int64
	TransportBytes int64
	// PredictedBytes is the simulator's plan-derived prediction for the
	// run (per-iteration prediction × completed iterations).
	PredictedBytes int64
	// WireSpans counts the wire-bearing spans summed into TracedBytes.
	WireSpans int
}

// TraceReport is ReconcileTrace's result: exact cross-checks (already
// verified when the report exists) plus the executed-vs-predicted
// breakdown.
type TraceReport struct {
	Iterations int
	Links      [3]LinkReconciliation // indexed by obs.LinkDP/LinkPP/LinkEmb

	// DrainNs sums the driver track's DP-drain span durations; ExposedNs
	// is DPSyncExposedNs. Equal by construction (verified).
	DrainNs   int64
	ExposedNs int64

	// WindowNs sums the driver's pipeline-window spans; BusyNs the
	// fwd/bwd compute spans across all Ranks engine tracks. BubbleFrac =
	// 1 − Busy/(Window·Ranks) is the executed pipeline bubble;
	// IdealBubbleFrac = (p−1)/(m+p−1) is the 1F1B analytic bubble.
	WindowNs        int64
	BusyNs          int64
	Ranks           int
	BubbleFrac      float64
	IdealBubbleFrac float64

	// CategoryNs sums executed span durations per trace category.
	CategoryNs map[string]int64
	Spans      int64
}

// String renders the report as the optcc-train -reconcile output.
func (r *TraceReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace reconciliation over %d iteration(s), %d spans\n", r.Iterations, r.Spans)
	fmt.Fprintf(&b, "  wire bytes (traced == transport, tol 0):\n")
	for _, l := range r.Links {
		fmt.Fprintf(&b, "    %-4s %14d bytes in %5d wire spans   predicted %14d\n",
			l.Link, l.TracedBytes, l.WireSpans, l.PredictedBytes)
	}
	fmt.Fprintf(&b, "  dp exposed: traced drain %d ns == counter %d ns (tol 0)\n", r.DrainNs, r.ExposedNs)
	fmt.Fprintf(&b, "  pipeline: window %d ns, busy %d ns over %d ranks — bubble %.3f (ideal 1F1B %.3f)\n",
		r.WindowNs, r.BusyNs, r.Ranks, r.BubbleFrac, r.IdealBubbleFrac)
	cats := make([]string, 0, len(r.CategoryNs))
	for c := range r.CategoryNs {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	fmt.Fprintf(&b, "  executed ns by category:")
	for _, c := range cats {
		fmt.Fprintf(&b, " %s=%d", c, r.CategoryNs[c])
	}
	b.WriteByte('\n')
	return b.String()
}

// ReconcileTrace aligns the executed-run trace against the collective
// transport's counters and the simulator's plan-derived predictions.
// The exact checks — per-class traced wire bytes == transport bytes,
// summed drain spans == DPSyncExposedNs, both at tolerance zero — are
// enforced here; an error means the trace cannot be trusted (or was
// incomplete: a recorder that dropped spans is rejected, as is a
// trainer without tracing or without a transport to reconcile against).
// Call between iterations, never while one is in flight.
func (t *Trainer) ReconcileTrace() (*TraceReport, error) {
	switch {
	case t.rec == nil:
		return nil, fmt.Errorf("train: tracing disabled (Config.TraceCapacity == 0)")
	case t.coll == nil:
		return nil, fmt.Errorf("train: no collective transport to reconcile against (reference engine)")
	case t.iter == 0:
		return nil, fmt.Errorf("train: no completed iterations to reconcile")
	}
	if d := t.rec.Dropped(); d > 0 {
		return nil, fmt.Errorf("train: recorder dropped %d spans (ring capacity %d too small — see TraceCapacityFor)", d, t.rec.Capacity())
	}

	rep := &TraceReport{
		Iterations: t.iter,
		Ranks:      t.cfg.DPGroups * t.cfg.Stages,
		CategoryNs: map[string]int64{},
		Spans:      t.rec.Count(),
	}
	for l := obs.LinkDP; l <= obs.LinkEmb; l++ {
		rep.Links[l].Link = l
	}
	t.rec.EachSpan(func(track int, s obs.Span) {
		rep.CategoryNs[s.Category()] += s.DurNs()
		if s.Phase.WireBearing() && s.Link >= obs.LinkDP && s.Link <= obs.LinkEmb {
			rep.Links[s.Link].TracedBytes += s.Bytes
			rep.Links[s.Link].WireSpans++
		}
		switch s.Phase {
		case obs.PhaseDPDrain:
			rep.DrainNs += s.DurNs()
		case obs.PhasePipeline:
			rep.WindowNs += s.DurNs()
		case obs.PhaseFwd, obs.PhaseBwd:
			rep.BusyNs += s.DurNs()
		}
	})

	stats := t.coll.rt.Stats()
	for cls, link := range map[collective.Class]obs.Link{
		collective.ClassDP:  obs.LinkDP,
		collective.ClassPP:  obs.LinkPP,
		collective.ClassEmb: obs.LinkEmb,
	} {
		rep.Links[link].TransportBytes = stats.For(cls).Bytes
		if got, want := rep.Links[link].TracedBytes, stats.For(cls).Bytes; got != want {
			return nil, fmt.Errorf("train: %s wire bytes diverge — trace %d, transport %d (Δ %d)",
				link, got, want, got-want)
		}
	}
	rep.ExposedNs = t.DPSyncExposedNs()
	if rep.DrainNs != rep.ExposedNs {
		return nil, fmt.Errorf("train: dp exposed time diverges — drain spans %d ns, counter %d ns (Δ %d)",
			rep.DrainNs, rep.ExposedNs, rep.DrainNs-rep.ExposedNs)
	}

	rep.Links[obs.LinkPP].PredictedBytes = t.predictPPBytes() * int64(t.iter)
	rep.Links[obs.LinkDP].PredictedBytes = t.predictDPBytes() * int64(t.iter)
	rep.Links[obs.LinkEmb].PredictedBytes = t.predictEmbBytes() * int64(t.iter)

	if rep.WindowNs > 0 && rep.Ranks > 0 {
		rep.BubbleFrac = 1 - float64(rep.BusyNs)/(float64(rep.WindowNs)*float64(rep.Ranks))
	}
	p, m := t.cfg.Stages, t.cfg.MicroBatches
	rep.IdealBubbleFrac = float64(p-1) / float64(m+p-1)
	return rep, nil
}

// predictPPBytes prices one iteration's pipeline-parallel traffic from
// the compiled plan — the per-replica inter-stage prediction times the
// replica count.
func (t *Trainer) predictPPBytes() int64 {
	dense := int64(t.cfg.MicroBatch*t.cfg.Model.Hidden) * compress.ElemBytes
	return sim.PredictInterStageFromPlan(t.plan, dense, t.probeCBWireBytes()).Bytes * int64(t.cfg.DPGroups)
}

// predictDPBytes prices one iteration's data-parallel sync traffic from
// the plan's bucket schedule (zero when no DP sync runs).
func (t *Trainer) predictDPBytes() int64 {
	if t.cfg.DPGroups <= 1 {
		return 0
	}
	buckets, err := sim.PredictDPBucketBytes(t.plan, t.probeDPPayloadBytes)
	if err != nil {
		return 0 // no bucket schedule compiled (never the case for trainer plans)
	}
	var total int64
	for _, row := range buckets {
		for _, b := range row {
			total += b
		}
	}
	return total
}

// predictEmbBytes prices one iteration's §6 embedding synchronization:
// a dense R-way ring all-reduce of a V-byte buffer moves 2·V·(R−1)
// aggregate, whatever the chunking (each of the 2(R−1) rounds moves V
// in total across the ring).
func (t *Trainer) predictEmbBytes() int64 {
	v := t.replicas[0][0].EmbeddingGrad().SizeBytes(compress.ElemBytes)
	d := int64(t.cfg.DPGroups)
	switch t.plan.Embedding() {
	case plan.EmbDPOnly, plan.EmbFused:
		r := int64(len(t.coll.topo.EmbGroup()))
		return 2 * v * (r - 1)
	case plan.EmbTwoPhase:
		var total int64
		if d > 1 {
			total += 2 * 2 * v * (d - 1) // phase 1: one D-way average per side
		}
		total += d * 2 * v // phase 2: D pairwise 2-way sums, 2V each
		return total
	}
	return 0 // EmbNone: single rank, in-place update
}

// probeCBWireBytes measures the wire size of one compressed backward
// payload on a compressor built from the plan's boundary spec (payload
// sizes are shape-determined, so one probe prices every send). Zero
// when backprop compression is off or there is no boundary.
func (t *Trainer) probeCBWireBytes() int64 {
	if !t.cfg.Opt.CompressBackprop || t.cfg.Stages < 2 {
		return 0
	}
	probe := tensor.New(t.cfg.MicroBatch, t.cfg.Model.Hidden)
	for i := range probe.Data {
		probe.Data[i] = float64(i%13) / 13
	}
	c, err := compress.Build(t.plan.CBSpec(0, 1))
	if err != nil {
		return 0 // unreachable: the spec was validated by plan.Compile
	}
	return c.Compress(probe).WireBytes()
}

// probeDPPayloadBytes measures the compressed payload size of gradient
// channel (s, gi), or 0 where the channel stays dense — the callback
// sim.PredictDPBucketBytes prices compressed channels with.
func (t *Trainer) probeDPPayloadBytes(s, gi int) int64 {
	g := t.grads[0][s][gi]
	if !t.plan.DPCompressed(s) || !compressibleShape(g) {
		return 0
	}
	probe := tensor.New(g.Rows, g.Cols)
	for i := range probe.Data {
		probe.Data[i] = float64(i%7) / 7
	}
	c, err := compress.Build(t.plan.DPSpec(s, 0, gi))
	if err != nil {
		return 0 // unreachable: the spec was validated by plan.Compile
	}
	return c.Compress(probe).WireBytes()
}

// TraceCapacityFor returns a per-track ring capacity that a run of
// `iters` iterations of cfg cannot overflow: a generous upper bound on
// spans per track per iteration (compute, sends, codec, per-op and
// per-exec collective spans all land on different tracks, so the
// busiest track bounds them all), with headroom for the driver spans
// and the warm-up iteration.
func TraceCapacityFor(cfg Config, iters int) int {
	// Busiest track candidates: an engine rank (fwd/bwd/send/codec —
	// ≤ ~12 spans per micro-batch), a collective worker (one exec span
	// per issued op — one op per DP bucket, so at most one per gradient
	// channel when the budget isolates each — plus up to two codec spans
	// per compressed channel, channels per stage ≲ 4·Blocks+8), and the
	// per-class op tracks (one span per issued op across every group of
	// the class). A loose affine form dominates all of them.
	spans := 12*cfg.MicroBatches + 40*cfg.Model.Blocks + 64
	c := spans * (iters + 1)
	if c > 1<<17 {
		c = 1 << 17
	}
	return c
}
