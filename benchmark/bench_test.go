package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// These tests cover the benchmark's own arithmetic and bookkeeping. None of
// them trains, reduces or serves anything, so they run in well under a
// second.

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	if v[0] != 15 || v[4] != 50 {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// The acceptance criterion is stated with Python's statistics.quantiles
// (exclusive method); these are its outputs for the same inputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3, ok := quartiles(tc.v)
		if !ok || math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", tc.v, q1, q3, ok, tc.q1, tc.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one sample has no quartiles")
	}
	if s, ok := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !ok || s != 1 {
		t.Errorf("spreadShare = %v, %v; want 5.5/5.5", s, ok)
	}
}

func TestBatchRatesAreMedianRobust(t *testing.T) {
	durs := make([]time.Duration, 4*batchOps+7) // the 7 trailing ops are dropped
	for i := range durs {
		durs[i] = time.Millisecond
	}
	for i := batchOps; i < 2*batchOps; i++ {
		durs[i] = 10 * time.Millisecond // a neighbour's burst hits one batch
	}
	rates := batchRates(durs, 2)
	want := []float64{2000, 200, 2000, 2000}
	if !reflect.DeepEqual(rates, want) {
		t.Fatalf("rates = %v, want %v", rates, want)
	}
	if got := median(rates); got != 2000 {
		t.Errorf("median rate = %v; the burst moved it", got)
	}
	if got := batchRates(durs[:10], 1); len(got) != 1 || got[0] != 1000 {
		t.Errorf("short run rate = %v, want one whole-run rate of 1000", got)
	}
}

// A run reports, per metric, the best of its builds: a slow episode of the
// host that covers some builds does not move the run's numbers.
func TestEndToEndMetricsReportBestBuild(t *testing.T) {
	build := func(op time.Duration) []time.Duration {
		durs := make([]time.Duration, 2*batchOps)
		for i := range durs {
			durs[i] = op
		}
		return durs
	}
	r := newPassResult()
	r.endToEndMetrics(timed{
		// Two clients per build; the second build ran through a slow episode.
		series:    [][]time.Duration{build(2 * time.Millisecond), build(2 * time.Millisecond), build(5 * time.Millisecond), build(5 * time.Millisecond)},
		clients:   2,
		setups:    []time.Duration{30 * time.Millisecond, 10 * time.Millisecond},
		workPerOp: 3,
	})
	want := map[string]float64{
		mSetupS:   0.010,
		mWorkPerS: 2 * 3 / 0.002, // both clients of the fast build
		mOpMsP50:  2,
		mOpMsP95:  2,
	}
	for name, w := range want {
		if got := r.metrics[name]; math.Abs(got-w) > 1e-9*w {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	if r.samples[mOpMsP50] != 4*batchOps {
		t.Errorf("op_ms_p50 rests on %d samples, want one build's %d", r.samples[mOpMsP50], 4*batchOps)
	}
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	a, b := genTensors(7, 3, 4, 5), genTensors(7, 3, 4, 5)
	for i := range a {
		if !a[i].Equal(b[i], 0) {
			t.Fatalf("tensor %d differs between two draws of seed 7", i)
		}
	}
	if genTensors(8, 1, 4, 5)[0].Equal(a[0], 0) {
		t.Error("seeds 7 and 8 drew the same tensor")
	}

	s1, s2 := genRequestStream(3, 0, 2, 5000), genRequestStream(3, 0, 2, 5000)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("request stream differs between two draws of seed 3")
	}
	other := genRequestStream(3, 1, 2, 5000)
	if reflect.DeepEqual(s1.order, other.order) {
		t.Error("clients 0 and 1 drew the same request order")
	}
	// Misses are the stated share and never name the same plan twice, within
	// or across clients.
	share := float64(len(s1.miss)) / float64(len(s1.order))
	if share < 0.08 || share > 0.12 {
		t.Errorf("miss share %.3f, want ≈0.10", share)
	}
	seen := map[string]bool{}
	for _, rs := range []*requestStream{s1, other} {
		for _, body := range rs.miss {
			key := string(body[bytes.Index(body, []byte("bucket_bytes")):])
			if seen[key] {
				t.Fatalf("miss budget %s used twice", key)
			}
			seen[key] = true
		}
	}
	hot := genHotSet()
	if len(hot) != 24 {
		t.Fatalf("hot set has %d plans, want 24", len(hot))
	}
	for i := range s1.order {
		if len(s1.body(i, hot)) == 0 {
			t.Fatalf("request %d has no body", i)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	p := newPhaseTotals()
	p.addTrack([]span{
		{"send", 0, 100},
		{"compress", 10, 40},   // child of send
		{"decompress", 30, 60}, // child of send, overlapping its sibling
		{"bwd", 100, 150},
		{"send", 200, 260},
		{"mark", 205, 205}, // zero-length child
	})
	want := map[string][2]int64{ // total, self
		"send":       {160, 110}, // 100−50 (children cover [10,60]) + 60
		"compress":   {30, 30},
		"decompress": {30, 30},
		"bwd":        {50, 50},
		"mark":       {0, 0},
	}
	for name, w := range want {
		if p.total[name] != w[0] || p.self[name] != w[1] {
			t.Errorf("%s: total %d self %d, want %d %d", name, p.total[name], p.self[name], w[0], w[1])
		}
	}
	if p.count["send"] != 2 {
		t.Errorf("send count %d, want 2", p.count["send"])
	}

	// Two in-flight operations that merely overlap are siblings: neither is
	// charged for the other. A grandchild is subtracted from its parent only.
	q := newPhaseTotals()
	q.addTrack([]span{{"op", 0, 10}, {"op", 5, 15}})
	if q.self["op"] != 20 {
		t.Errorf("overlapping siblings: self %d, want 20", q.self["op"])
	}
	r := newPhaseTotals()
	r.addTrack([]span{{"root", 0, 100}, {"mid", 10, 90}, {"leaf", 20, 30}})
	if r.self["root"] != 20 || r.self["mid"] != 70 || r.self["leaf"] != 10 {
		t.Errorf("nesting: root %d mid %d leaf %d, want 20 70 10", r.self["root"], r.self["mid"], r.self["leaf"])
	}
}

func TestJudge(t *testing.T) {
	set := func(vals ...float64) metricResult {
		var m metricResult
		for _, v := range vals {
			m.add(v, 1)
		}
		return m
	}
	tight := set(100, 101, 99, 100, 100)
	for _, tc := range []struct {
		name      string
		base, cur metricResult
		better    string
		want      string
	}{
		{"same", tight, tight, "lower", verdictOK},
		{"slower within bound", tight, set(108, 109, 107, 108, 108), "lower", verdictOK},
		{"slower beyond bound", tight, set(115, 116, 114, 115, 115), "lower", verdictRegressed},
		{"faster", tight, set(50, 50, 50, 50, 50), "lower", verdictOK},
		{"throughput drop", tight, set(85, 85, 85, 85, 85), "higher", verdictRegressed},
		{"throughput gain", tight, set(150, 150, 150, 150, 150), "higher", verdictOK},
		{"noisy set", tight, set(80, 100, 120, 140, 160), "lower", verdictUnresolved},
		{"single runs", set(100), set(104), "lower", verdictOK},
	} {
		if _, got := judge(tc.base, tc.cur, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// BENCHMARK.json is the registry in the driver's schema, and stays so.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	var want bytes.Buffer
	if err := writeSpec(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("BENCHMARK.json differs from the registry; regenerate it with `go run -C benchmark . -emit-spec > BENCHMARK.json`")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 7 {
		t.Errorf("%d workloads, want 7", len(spec.Workloads))
	}
}

func TestSpecValidateRejects(t *testing.T) {
	ok := registrySpec()
	if err := ok.validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*benchSpec){
		"bad name":       func(s *benchSpec) { s.Workloads[0].Name = "has space" },
		"duplicate name": func(s *benchSpec) { s.PerLayer[1].Name = s.PerLayer[0].Name },
		"bad unit":       func(s *benchSpec) { s.PerLayer[0].Unit = "µs" },
		"loose bound":    func(s *benchSpec) { s.EndToEnd[1].Bound = 0.3 },
		"no setup":       func(s *benchSpec) { s.EndToEnd = s.EndToEnd[1:] },
		"long why":       func(s *benchSpec) { s.Workloads[0].Why = string(make([]byte, 201)) },
		"run too long":   func(s *benchSpec) { s.RunSeconds = 61 },
	} {
		s := registrySpec()
		mutate(&s)
		if s.validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Every metric name a pass can report is defined in the registry, so no
// pass prints a name BENCHMARK.json does not carry. The names are the
// string literals handed to passResult.set, plus the per-kind collective
// medians, which are built from mixKinds.
func TestEveryReportedNameIsRegistered(t *testing.T) {
	defined := map[string]bool{}
	for _, m := range endToEnd {
		defined[m.Name] = true
	}
	for _, m := range perLayer {
		if !strings.Contains(m.Name, ".") {
			t.Errorf("per-layer metric %q is not prefixed with its layer", m.Name)
		}
		defined[m.Name] = true
	}
	for _, w := range workloads() {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is not a valid name", w.name)
		}
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	setCall := regexp.MustCompile(`\.set\(\s*"([^"]+)",`)
	reported := map[string]bool{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range setCall.FindAllSubmatch(src, -1) {
			reported[string(m[1])] = true
		}
	}
	for _, k := range mixKinds {
		reported["collective."+k.name+"_us_p50"] = true
	}
	for _, m := range endToEnd {
		reported[m.Name] = true // set through the m* constants
	}
	for name := range reported {
		if !defined[name] {
			t.Errorf("a pass reports %q, which the registry does not define", name)
		}
	}
	for name := range defined {
		if !reported[name] {
			t.Errorf("the registry defines %q, which no pass reports", name)
		}
	}
}

func TestDescribeListsEverything(t *testing.T) {
	var buf bytes.Buffer
	describe(&buf)
	for _, m := range perLayer {
		if !bytes.Contains(buf.Bytes(), []byte("`"+m.Name+"`")) {
			t.Errorf("describe omits %s", m.Name)
		}
		if m.Moves == "" || m.On == "" || m.Flat == "" || m.Def == "" {
			t.Errorf("%s: the interaction row is incomplete", m.Name)
		}
	}
}
