package simnet

import (
	"fmt"
	"sort"
)

// Task is one unit of simulated work: a compute op on a device or a
// transfer on a link. Tasks bound to the same Resource execute serially,
// in the order they were added to the graph (the schedule order).
type Task struct {
	ID       string
	Label    string // free-form grouping key for breakdown accounting
	Duration float64
	Resource string // "" means unconstrained (infinitely parallel)

	index   int32   // insertion position in the graph
	deps    []*Task // explicit dependencies
	resPrev *Task   // the task added before this one on Resource
	start   float64
	finish  float64
}

// Start returns the start time resolved by the latest solve.
func (t *Task) Start() float64 { return t.start }

// Finish returns the finish time resolved by the latest solve.
func (t *Task) Finish() float64 { return t.finish }

// Graph is a DAG of tasks plus resource serialization. Resource order is
// insertion order: adding tasks in schedule order encodes the per-device
// execution policy, exactly how 1F1B fixes each device's op sequence.
type Graph struct {
	tasks   []*Task
	byID    map[string]*Task
	resTail map[string]*Task // last task added on each resource
}

// NewGraph returns an empty task graph.
func NewGraph() *Graph {
	return &Graph{byID: make(map[string]*Task), resTail: make(map[string]*Task)}
}

// Add registers a task. IDs must be unique; duration must be ≥ 0.
func (g *Graph) Add(id, label string, duration float64, resource string) *Task {
	if duration < 0 {
		panic(fmt.Sprintf("simnet: task %s negative duration %v", id, duration))
	}
	if _, dup := g.byID[id]; dup {
		panic(fmt.Sprintf("simnet: duplicate task id %s", id))
	}
	t := &Task{ID: id, Label: label, Duration: duration, Resource: resource, index: int32(len(g.tasks))}
	g.tasks = append(g.tasks, t)
	g.byID[id] = t
	if resource != "" {
		t.resPrev = g.resTail[resource]
		g.resTail[resource] = t
	}
	return t
}

// Dep declares that after must not start before before finishes.
func (g *Graph) Dep(before, after *Task) {
	if before == nil || after == nil {
		panic("simnet: nil task in Dep")
	}
	after.deps = append(after.deps, before)
}

// Tasks returns all tasks in insertion order.
func (g *Graph) Tasks() []*Task { return g.tasks }

// Solve freezes the graph and resolves it once: each task starts at the
// max of its dependencies' finish times and its resource predecessor's
// finish time. Every task's Start and Finish are recorded. Returns the
// makespan. Errors on dependency cycles.
func (g *Graph) Solve() (float64, error) {
	seq, err := g.Freeze()
	if err != nil {
		return 0, err
	}
	return seq.Makespan(), nil
}

// TotalByLabel sums task durations per label — the raw material of the
// CPI-stack-style breakdown of Fig. 3/10.
func (g *Graph) TotalByLabel() map[string]float64 {
	out := make(map[string]float64)
	for _, t := range g.tasks {
		out[t.Label] += t.Duration
	}
	return out
}

// ResourceTimeline returns the tasks of one resource sorted by start time,
// for rendering ASCII timing diagrams (Fig. 4).
func (g *Graph) ResourceTimeline(resource string) []*Task {
	var seq []*Task
	for _, t := range g.tasks {
		if t.Resource == resource {
			seq = append(seq, t)
		}
	}
	sort.SliceStable(seq, func(i, j int) bool { return seq[i].start < seq[j].start })
	return seq
}
