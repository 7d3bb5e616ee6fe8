// Package pipeline generates pipeline-parallel execution schedules. The
// reproduction implements the 1F1B schedule of PipeDream/Megatron-LM that
// the paper's Fig. 4 depicts, plus the GPipe all-forward/all-backward
// schedule as a comparison point, and classifies every operation into
// warmup / steady / epilogue phases — the classification epilogue-only
// compression (§5.2) is built on.
package pipeline

import "fmt"

// OpKind distinguishes forward from backward compute.
type OpKind int

// Op kinds.
const (
	Forward OpKind = iota
	Backward
)

func (k OpKind) String() string {
	if k == Forward {
		return "F"
	}
	return "B"
}

// Phase classifies an op's position in the 1F1B schedule.
type Phase int

// Phases of the 1F1B schedule.
const (
	Warmup Phase = iota
	Steady
	Epilogue
)

func (p Phase) String() string {
	switch p {
	case Warmup:
		return "warmup"
	case Steady:
		return "steady"
	default:
		return "epilogue"
	}
}

// Op is one compute operation on one pipeline stage.
type Op struct {
	Kind  OpKind
	Stage int
	Micro int // micro-batch index, 0-based
	Phase Phase
}

func (o Op) String() string {
	return fmt.Sprintf("%s(s%d,m%d,%s)", o.Kind, o.Stage, o.Micro, o.Phase)
}

// Schedule is a per-stage ordered list of compute ops.
type Schedule struct {
	Stages     int
	MicroBatch int
	PerStage   [][]Op
}

// OneFOneB builds the non-interleaved 1F1B schedule for p stages and m
// micro-batches (Narayanan et al., SOSP'19; Fig. 4a of the paper).
//
// Stage s performs w = min(p−s−1, m) warmup forwards, then alternates
// one-forward-one-backward, then drains the remaining backwards (the
// epilogue).
func OneFOneB(p, m int) (*Schedule, error) {
	if p < 1 {
		return nil, fmt.Errorf("pipeline: stages %d < 1", p)
	}
	if m < 1 {
		return nil, fmt.Errorf("pipeline: micro-batches %d < 1", m)
	}
	s := &Schedule{Stages: p, MicroBatch: m, PerStage: make([][]Op, p)}
	for st := 0; st < p; st++ {
		w := p - st - 1
		if w > m {
			w = m
		}
		var ops []Op
		for i := 0; i < w; i++ {
			ops = append(ops, Op{Kind: Forward, Stage: st, Micro: i, Phase: Warmup})
		}
		// Steady: forward w+i paired with backward i.
		for i := 0; w+i < m; i++ {
			ops = append(ops, Op{Kind: Forward, Stage: st, Micro: w + i, Phase: Steady})
			ops = append(ops, Op{Kind: Backward, Stage: st, Micro: i, Phase: Steady})
		}
		// Epilogue: drain the remaining w backwards.
		for i := m - w; i < m; i++ {
			ops = append(ops, Op{Kind: Backward, Stage: st, Micro: i, Phase: Epilogue})
		}
		s.PerStage[st] = ops
	}
	return s, nil
}

// GPipe builds the all-forward-then-all-backward schedule (Huang et al.,
// NeurIPS'19), used as a peak-memory/bubble comparison baseline.
func GPipe(p, m int) (*Schedule, error) {
	if p < 1 || m < 1 {
		return nil, fmt.Errorf("pipeline: invalid GPipe config p=%d m=%d", p, m)
	}
	s := &Schedule{Stages: p, MicroBatch: m, PerStage: make([][]Op, p)}
	for st := 0; st < p; st++ {
		var ops []Op
		for i := 0; i < m; i++ {
			ops = append(ops, Op{Kind: Forward, Stage: st, Micro: i, Phase: Warmup})
		}
		for i := 0; i < m; i++ {
			ph := Steady
			if i >= m-(p-st-1) {
				ph = Epilogue
			}
			ops = append(ops, Op{Kind: Backward, Stage: st, Micro: i, Phase: ph})
		}
		s.PerStage[st] = ops
	}
	return s, nil
}

// IsEpilogueBackward reports whether the backward of micro-batch micro on
// stage implies an inter-stage send that cannot overlap with later compute
// on the sending device — the §5.2 epilogue-only compression target. With
// 1F1B this is exactly the drain phase: micro ≥ m − (p−stage−1).
func (s *Schedule) IsEpilogueBackward(stage, micro int) bool {
	w := s.Stages - stage - 1
	if w > s.MicroBatch {
		w = s.MicroBatch
	}
	return micro >= s.MicroBatch-w
}

// EpilogueBackwardCount returns how many backward sends from stage are in
// the epilogue.
func (s *Schedule) EpilogueBackwardCount(stage int) int {
	n := 0
	for m := 0; m < s.MicroBatch; m++ {
		if s.IsEpilogueBackward(stage, m) {
			n++
		}
	}
	return n
}

// MaxLinkBacklog returns an upper bound on the number of in-flight
// messages any directed inter-stage link can accumulate while the
// schedule executes: a boundary carries exactly one message per
// micro-batch per direction, so a transport queue of this depth never
// blocks a rank that runs ahead of its neighbour — the sizing the 1F1B
// executor uses to make the pipeline trivially deadlock-free.
func (s *Schedule) MaxLinkBacklog() int { return s.MicroBatch }

// PeakInFlight returns the maximum number of micro-batches whose forward
// has run but whose backward has not, for the given stage — the activation
// memory high-water mark (1F1B's advantage over GPipe).
func (s *Schedule) PeakInFlight(stage int) int {
	cur, peak := 0, 0
	for _, op := range s.PerStage[stage] {
		if op.Kind == Forward {
			cur++
			if cur > peak {
				peak = cur
			}
		} else {
			cur--
		}
	}
	return peak
}

// Validate checks schedule invariants: every micro-batch appears exactly
// once as forward and once as backward per stage, a backward never
// precedes its forward, and backwards happen in micro-batch order.
func (s *Schedule) Validate() error {
	for st, ops := range s.PerStage {
		fSeen := make([]bool, s.MicroBatch)
		bSeen := make([]bool, s.MicroBatch)
		lastB := -1
		for _, op := range ops {
			if op.Stage != st {
				return fmt.Errorf("pipeline: op %v filed under stage %d", op, st)
			}
			if op.Micro < 0 || op.Micro >= s.MicroBatch {
				return fmt.Errorf("pipeline: op %v micro out of range", op)
			}
			switch op.Kind {
			case Forward:
				if fSeen[op.Micro] {
					return fmt.Errorf("pipeline: duplicate %v", op)
				}
				fSeen[op.Micro] = true
			case Backward:
				if bSeen[op.Micro] {
					return fmt.Errorf("pipeline: duplicate %v", op)
				}
				if !fSeen[op.Micro] {
					return fmt.Errorf("pipeline: %v before its forward", op)
				}
				if op.Micro != lastB+1 {
					return fmt.Errorf("pipeline: backward order broken at %v", op)
				}
				bSeen[op.Micro] = true
				lastB = op.Micro
			}
		}
		for i := 0; i < s.MicroBatch; i++ {
			if !fSeen[i] || !bSeen[i] {
				return fmt.Errorf("pipeline: stage %d missing ops for micro %d", st, i)
			}
		}
	}
	return nil
}
