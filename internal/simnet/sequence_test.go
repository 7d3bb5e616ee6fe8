package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// oracle is the reference solver: a map-based Kahn sort over the
// explicit dependencies plus resource chains it derives itself from
// insertion order, pricing each task at dur(t). It returns the makespan
// and each task's start and finish, leaving the tasks untouched.
func oracle(g *Graph, dur func(*Task) float64) (float64, map[*Task][2]float64, error) {
	preds := make(map[*Task][]*Task, len(g.tasks))
	last := make(map[string]*Task)
	for _, t := range g.tasks {
		preds[t] = append(preds[t], t.deps...)
		if t.Resource != "" {
			if p := last[t.Resource]; p != nil {
				preds[t] = append(preds[t], p)
			}
			last[t.Resource] = t
		}
	}
	indeg := make(map[*Task]int, len(g.tasks))
	succs := make(map[*Task][]*Task, len(g.tasks))
	for t, ps := range preds {
		indeg[t] = len(ps)
		for _, p := range ps {
			succs[p] = append(succs[p], t)
		}
	}
	var ready []*Task
	for _, t := range g.tasks {
		if indeg[t] == 0 {
			ready = append(ready, t)
		}
	}
	times := make(map[*Task][2]float64, len(g.tasks))
	var makespan float64
	for len(ready) > 0 {
		t := ready[0]
		ready = ready[1:]
		var start float64
		for _, p := range preds[t] {
			if f := times[p][1]; f > start {
				start = f
			}
		}
		finish := start + dur(t)
		times[t] = [2]float64{start, finish}
		if finish > makespan {
			makespan = finish
		}
		for _, s := range succs[t] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(times) != len(g.tasks) {
		return 0, nil, fmt.Errorf("oracle: dependency cycle")
	}
	return makespan, times, nil
}

func stored(t *Task) float64 { return t.Duration }

func without(label string) func(*Task) float64 {
	return func(t *Task) float64 {
		if t.Label == label {
			return 0
		}
		return t.Duration
	}
}

// pipelineGraph builds a small graph exercising both explicit deps and
// resource serialization: two devices, a link between them, and a
// comm task hidden under compute (the 1F1B shape). It returns the comm
// task too.
func pipelineGraph() (*Graph, *Task) {
	g := NewGraph()
	a := g.Add("a", "fwd", 2, "dev0")
	g.Add("c2", "fwd", 4, "dev0")
	x := g.Add("x", "comm", 3, "link0")
	b := g.Add("b", "bwd", 2, "dev1")
	g.Dep(a, x)
	g.Dep(x, b)
	return g, x
}

func TestFreezeMakespanMatchesSolve(t *testing.T) {
	g, _ := pipelineGraph()
	want, _, err := oracle(g, stored)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := g.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if got := seq.Makespan(); got != want {
		t.Fatalf("frozen makespan %v want %v", got, want)
	}
	// Re-solving is idempotent.
	if got := seq.Makespan(); got != want {
		t.Fatalf("second solve %v want %v", got, want)
	}
}

func TestFreezeMakespanAfterDurationMutation(t *testing.T) {
	g, x := pipelineGraph()
	seq, err := g.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	seq.Makespan()
	// Stretch the comm task so it no longer hides.
	x.Duration = 10
	want, _, err := oracle(g, stored)
	if err != nil {
		t.Fatal(err)
	}
	if got := seq.Makespan(); got != want {
		t.Fatalf("mutated makespan %v want %v", got, want)
	}
}

func TestMakespanWithoutMatchesZeroedRebuild(t *testing.T) {
	g, _ := pipelineGraph()
	seq, err := g.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"fwd", "bwd", "comm", "nosuch"} {
		want, _, err := oracle(g, without(label))
		if err != nil {
			t.Fatal(err)
		}
		if got := seq.MakespanWithout(label); got != want {
			t.Fatalf("MakespanWithout(%q)=%v want %v", label, got, want)
		}
	}
}

func TestFreezeCycleDetected(t *testing.T) {
	g := NewGraph()
	a := g.Add("a", "c", 1, "")
	b := g.Add("b", "c", 1, "")
	g.Dep(a, b)
	g.Dep(b, a)
	if _, err := g.Freeze(); err == nil {
		t.Fatal("cycle not detected by Freeze")
	}
}

func TestFreezeRespectsResourceOrder(t *testing.T) {
	// Insertion order on a shared resource must serialize in the frozen
	// sequence: the makespan is the sum of the durations.
	g := NewGraph()
	for i := 0; i < 5; i++ {
		g.Add(fmt.Sprintf("t%d", i), "c", float64(i+1), "dev0")
	}
	want, _, err := oracle(g, stored)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := g.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if got := seq.Makespan(); got != want || got != 15 {
		t.Fatalf("serialized makespan %v want %v (sum of durations)", got, want)
	}
}

func TestMakespanAllocationFree(t *testing.T) {
	g, _ := pipelineGraph()
	seq, err := g.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	seq.Makespan() // warm scratch
	allocs := testing.AllocsPerRun(100, func() {
		seq.Makespan()
		seq.MakespanWithout("comm")
	})
	if allocs != 0 {
		t.Fatalf("re-solve allocates %v per run, want 0", allocs)
	}
}

// randomGraph builds a random task graph: up to 40 tasks with
// non-integral durations over three shared resources and an
// unconstrained class, plus random explicit dependencies that mostly
// follow insertion order and occasionally run against it, so some
// graphs are cyclic.
func randomGraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(40)
	g := NewGraph()
	labels := []string{"fwd", "bwd", "comm"}
	resources := []string{"", "dev0", "dev1", "link0"}
	for i := 0; i < n; i++ {
		g.Add(fmt.Sprintf("t%d", i), labels[rng.Intn(len(labels))],
			rng.Float64()*10, resources[rng.Intn(len(resources))])
	}
	for e := rng.Intn(2 * n); e > 0; e-- {
		a, b := g.tasks[rng.Intn(n)], g.tasks[rng.Intn(n)]
		if a == b {
			continue
		}
		if a.index > b.index && rng.Intn(10) != 0 {
			a, b = b, a
		}
		g.Dep(a, b)
	}
	return g
}

// Property: on any random graph, Solve and every frozen re-solve agree
// with the oracle exactly — same cycle verdict, same makespan, and the
// same start and finish for every task.
func TestSolveMatchesOracleProperty(t *testing.T) {
	var acyclic int
	f := func(seed int64) bool {
		g := randomGraph(seed)
		want, times, oerr := oracle(g, stored)
		got, err := g.Solve()
		if (err != nil) != (oerr != nil) {
			return false
		}
		if err != nil {
			return true
		}
		acyclic++
		if got != want {
			return false
		}
		for _, tk := range g.tasks {
			if tm := times[tk]; tk.Start() != tm[0] || tk.Finish() != tm[1] {
				return false
			}
		}
		seq, err := g.Freeze()
		if err != nil {
			return false
		}
		for _, label := range []string{"fwd", "bwd", "comm"} {
			want, _, _ := oracle(g, without(label))
			if seq.MakespanWithout(label) != want {
				return false
			}
		}
		return seq.Makespan() == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if acyclic < 150 {
		t.Fatalf("only %d of 300 random graphs were acyclic; the property is too weak", acyclic)
	}
}
