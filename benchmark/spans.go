package main

import (
	"io"
	"sort"
	"time"

	"repro/internal/obs"
)

// span is one interval on one track: the benchmark's own spans (the root
// span around each public call it drives) and the program's recorded
// obs.Spans are both folded into this shape for aggregation.
type span struct {
	name       string
	start, end int64 // nanoseconds on the track's clock
}

func (s span) dur() int64 { return s.end - s.start }

// spanAt is one of the benchmark's own spans: d long, starting at t0, on a
// clock that counts from epoch.
func spanAt(epoch time.Time, name string, t0 time.Time, d time.Duration) span {
	start := t0.Sub(epoch).Nanoseconds()
	return span{name: name, start: start, end: start + d.Nanoseconds()}
}

// phaseTotals sums, per span name, the spans' durations and counts.
type phaseTotals struct {
	total map[string]int64 // Σ duration
	self  map[string]int64 // Σ duration minus the part child spans cover
	count map[string]int64
}

func newPhaseTotals() *phaseTotals {
	return &phaseTotals{total: map[string]int64{}, self: map[string]int64{}, count: map[string]int64{}}
}

// addTrack folds one track's spans in. A span's self time is its duration
// minus the part of that interval its child spans cover, where a child is
// a span on the same track that starts inside it and ends no later; spans
// that merely overlap (two in-flight collectives on an op track) are
// siblings and keep their full duration.
func (p *phaseTotals) addTrack(spans []span) {
	s := append([]span(nil), spans...)
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].start != s[j].start {
			return s[i].start < s[j].start
		}
		return s[i].end > s[j].end // the enclosing span first
	})
	type open struct {
		span
		covered  int64 // child cover so far
		coverEnd int64 // right edge of the children folded in
	}
	var stack []open
	closeTop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p.total[top.name] += top.dur()
		p.self[top.name] += top.dur() - top.covered
		p.count[top.name]++
	}
	for _, sp := range s {
		for len(stack) > 0 && !(sp.start >= stack[len(stack)-1].start && sp.end <= stack[len(stack)-1].end) {
			closeTop()
		}
		if n := len(stack); n > 0 {
			// Direct child of the top span: cover is the union of the
			// children, so an overlap with an earlier sibling counts once.
			par := &stack[n-1]
			lo := sp.start
			if lo < par.coverEnd {
				lo = par.coverEnd
			}
			if sp.end > lo {
				par.covered += sp.end - lo
				par.coverEnd = sp.end
			}
		}
		stack = append(stack, open{span: sp, coverEnd: sp.start})
	}
	for len(stack) > 0 {
		closeTop()
	}
}

// recorderTracks converts a recorder's retained spans at or after sinceNs
// into per-track span lists named by obs phase.
func recorderTracks(rec *obs.Recorder, sinceNs int64) [][]span {
	tracks := make([][]span, rec.Tracks())
	rec.EachSpan(func(t int, s obs.Span) {
		if s.StartNs < sinceNs {
			return
		}
		tracks[t] = append(tracks[t], span{name: phaseName(s.Phase), start: s.StartNs, end: s.EndNs})
	})
	return tracks
}

// phaseName names an obs.Phase for aggregation (obs exports no String).
func phaseName(p obs.Phase) string {
	switch p {
	case obs.PhaseFwd:
		return "fwd"
	case obs.PhaseBwd:
		return "bwd"
	case obs.PhaseOpt:
		return "opt"
	case obs.PhaseSendFwd:
		return "send_fwd"
	case obs.PhaseSendBwd:
		return "send_bwd"
	case obs.PhaseAllReduce:
		return "allreduce"
	case obs.PhaseAllReduceCompressed:
		return "allreduce_compressed"
	case obs.PhaseBroadcast:
		return "broadcast"
	case obs.PhaseCollExec:
		return "coll_exec"
	case obs.PhaseCompress:
		return "compress"
	case obs.PhaseDecompress:
		return "decompress"
	case obs.PhasePipeline:
		return "pipeline"
	case obs.PhaseDPDrain:
		return "dp_drain"
	case obs.PhaseEmbSync:
		return "emb_sync"
	case obs.PhasePrice:
		return "price"
	}
	return "none"
}

// traceTrack is one named track of the Chrome trace the benchmark writes.
type traceTrack struct {
	name  string
	spans []span
}

// maxTraceSpans caps each written track, so a trace of a ten-second run
// stays loadable; the aggregates always use every span.
const maxTraceSpans = 20000

// writeChromeTrace writes the tracks as one Chrome trace-event array, on
// the same encoder the program's own traces use.
func writeChromeTrace(w io.Writer, process string, tracks []traceTrack) error {
	enc := obs.NewTraceEncoder(obs.ExecutedTracePID)
	enc.ProcessName(process)
	for _, tr := range tracks {
		if len(tr.spans) == 0 {
			continue
		}
		tid := enc.Track(tr.name)
		spans := tr.spans
		if len(spans) > maxTraceSpans {
			spans = spans[:maxTraceSpans]
		}
		for _, s := range spans {
			durUs := float64(s.dur()) / 1e3
			if durUs <= 0 {
				durUs = 1e-3 // zero-length wire marks stay visible
			}
			enc.Event(s.name, "bench", float64(s.start)/1e3, durUs, tid)
		}
	}
	return enc.Flush(w)
}
