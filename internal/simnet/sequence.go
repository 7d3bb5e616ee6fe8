package simnet

import "fmt"

// Sequence is a graph's precedence structure frozen for repeated
// re-pricing: the topological order over explicit dependencies plus
// resource serialization is computed once, so resolving the makespan
// after a round of duration updates is a single pass over that order
// with no allocation. This is what lets
// a plan-space search price thousands of candidate configurations on one
// task graph in milliseconds — the graph's *structure* is fixed by the
// parallelism grid while only the durations vary with the candidate.
//
// The frozen structure aliases the graph's tasks: update durations by
// writing Task.Duration and re-solve. Adding tasks or dependencies to
// the graph after Freeze invalidates the sequence; Freeze again.
type Sequence struct {
	order []*Task // topological order
}

// Freeze topologically sorts the graph once (Kahn's algorithm) and
// returns the frozen sequence. Errors on dependency cycles.
func (g *Graph) Freeze() (*Sequence, error) {
	n := len(g.tasks)
	indeg := make([]int32, n)
	succs := make([][]int32, n)
	edge := func(before, after *Task) {
		indeg[after.index]++
		succs[before.index] = append(succs[before.index], after.index)
	}
	for _, t := range g.tasks {
		for _, d := range t.deps {
			edge(d, t)
		}
		if t.resPrev != nil {
			edge(t.resPrev, t)
		}
	}
	// order doubles as the ready queue.
	order := make([]*Task, 0, n)
	for _, t := range g.tasks {
		if indeg[t.index] == 0 {
			order = append(order, t)
		}
	}
	for head := 0; head < len(order); head++ {
		t := order[head]
		for _, s := range succs[t.index] {
			if indeg[s]--; indeg[s] == 0 {
				order = append(order, g.tasks[s])
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("simnet: dependency cycle (%d of %d tasks resolved)", len(order), n)
	}
	return &Sequence{order: order}, nil
}

// Makespan resolves the frozen structure against the tasks' current
// durations, records every task's Start and Finish, and returns the
// makespan. No allocation.
func (s *Sequence) Makespan() float64 { return s.solve("") }

// MakespanWithout resolves the makespan with every task of the given
// label priced at zero — the §3 CPI-stack "turn a component off" pass,
// without touching the graph. No allocation.
func (s *Sequence) MakespanWithout(label string) float64 { return s.solve(label) }

// solve is the one pass that resolves finish times: each task starts at
// the latest finish among its dependencies and its resource
// predecessor, all of which come earlier in the order. Tasks labelled
// zero take no time ("" zeroes nothing).
func (s *Sequence) solve(zero string) float64 {
	var makespan float64
	for _, t := range s.order {
		var start float64
		for _, p := range t.deps {
			if p.finish > start {
				start = p.finish
			}
		}
		if p := t.resPrev; p != nil && p.finish > start {
			start = p.finish
		}
		d := t.Duration
		if zero != "" && t.Label == zero {
			d = 0
		}
		f := start + d
		t.start, t.finish = start, f
		if f > makespan {
			makespan = f
		}
	}
	return makespan
}
