package main

import (
	"fmt"
	"runtime"
	"time"
)

// setupRuns is how many times a run builds its workload from scratch.
// Every build is one setup_s sample, is measured for an equal share of the
// run's window, and is torn down again; buildGap of idle time separates one
// build from the next.
//
// Each metric, setup_s too, is computed per build and the run reports the
// best build's value. The reference host slows for a minute at a time (see
// README.md, "Steadiness"); such an episode only ever makes a build slower,
// so the best of five builds spread over some seventeen seconds is the
// estimate least exposed to it — across ten runs it halved the spread of
// the pooled samples' median. It also keeps one build's luck (where its
// matrices and goroutines landed makes a built trainer a steady few percent
// faster or slower for its whole life) from deciding a run.
const (
	setupRuns = 5
	buildGap  = 1500 * time.Millisecond
)

// runEnv is what a workload pass is given: the seed its inputs are made
// from, how long to measure, and a short relative directory it may create
// socket files in.
type runEnv struct {
	seed    int64
	seconds float64
	scratch string
}

func (e runEnv) window() time.Duration { return e.share(1) }

// share returns the given share of the run's window.
func (e runEnv) share(f float64) time.Duration {
	return time.Duration(f * e.seconds * float64(time.Second))
}

// Shares of a traced pass's seconds given to each measuring stretch; set-up
// and the direct probes take the rest.
const (
	untracedShare  = 0.30 // tracing off: the counters tracing would disturb
	tracedShare    = 0.25 // spans kept in memory
	referenceShare = 0.10 // train-*: the serial reference engine
)

// workload is one named set of inputs. run measures with tracing off and
// reports the end-to-end metrics; trace measures with spans kept in memory
// and reports the per-layer metrics that apply to it.
type workload struct {
	name, why string
	run       func(runEnv) (*passResult, error)
	trace     func(runEnv) (*passResult, error)
}

func workloads() []workload {
	return []workload{
		trainWorkload(trainPPCbfesc),
		trainWorkload(trainPPDense),
		trainWorkload(trainDPCbfesc),
		trainWorkload(trainDPUnix),
		collectiveWorkload(),
		autotuneWorkload(),
		serveWorkload(),
	}
}

// check is one output check's verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// passResult is what one pass of one workload produced.
type passResult struct {
	// attempted counts timed operations; failed counts those that failed
	// (non-finite loss, transport error, non-200) plus failed checks.
	attempted, failed int64
	checks            []check
	metrics           map[string]float64
	// samples is the number of timed samples behind each metric.
	samples map[string]int
	// tracks is the traced pass's Chrome trace content.
	tracks []traceTrack
}

func newPassResult() *passResult {
	return &passResult{metrics: map[string]float64{}, samples: map[string]int{}}
}

func (r *passResult) set(name string, v float64, samples int) {
	r.metrics[name] = v
	r.samples[name] = samples
}

// expect records an output check; a failed one counts as a failed operation.
func (r *passResult) expect(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		r.failed++
	}
	r.checks = append(r.checks, c)
}

func (r *passResult) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0
}

// overBuilds is the untraced pass's skeleton: setupRuns times, build the
// workload (one set-up sample), collect the build's garbage, measure it for
// its share of the window, and tear it down. It returns each build's set-up
// time.
func overBuilds[T any](window time.Duration, build func() (T, error),
	measure func(T, time.Duration) error, teardown func(T)) (setups []time.Duration, err error) {
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			time.Sleep(buildGap)
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		runtime.GC()
		err = measure(v, window/setupRuns)
		teardown(v)
		if err != nil {
			return nil, err
		}
	}
	return setups, nil
}

// timed is the raw material of the end-to-end metrics.
type timed struct {
	// series holds per-operation wall times, one slice per sequence of
	// consecutive operations: build b's clients are series[b*clients:][:clients].
	series [][]time.Duration
	// clients is how many sequences one build runs at the same time.
	clients int
	// setups holds each build's set-up time.
	setups []time.Duration
	// workPerOp is the work one operation produces (see work_per_s).
	workPerOp float64
}

// loop runs op until the window has passed and at least minOps operations
// have run, timing each call; op reports whether the operation succeeded.
func loop(window time.Duration, minOps int, op func(i int) bool) (durs []time.Duration, failed int64) {
	durs = make([]time.Duration, 0, 1<<16)
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		if i >= minOps && t0.Sub(start) >= window {
			return durs, failed
		}
		ok := op(i)
		durs = append(durs, time.Since(t0))
		if !ok {
			failed++
		}
	}
}

// endToEndMetrics folds a timed run into the end-to-end metrics: each is
// the best build's value.
func (r *passResult) endToEndMetrics(t timed) {
	best := func(name string, v float64, samples int, higher bool) {
		if old, ok := r.metrics[name]; !ok || (higher && v > old) || (!higher && v < old) {
			r.set(name, v, samples)
		}
	}
	for b, setup := range t.setups {
		best(mSetupS, setup.Seconds(), 1, false)
		var ops []time.Duration
		var rates []float64
		for _, durs := range t.series[b*t.clients : (b+1)*t.clients] {
			ops = append(ops, durs...)
			rates = append(rates, batchRates(durs, t.workPerOp)...)
		}
		ms := millis(ops)
		best(mWorkPerS, median(rates)*float64(t.clients), len(rates), true)
		best(mOpMsP50, median(ms), len(ms), false)
		best(mOpMsP95, percentile(ms, 95), len(ms), false)
	}
}

// timeCalls returns the median wall time of n calls of f, in microseconds,
// after warm warm-up calls — the probe primitive of the *_us layer metrics.
func timeCalls(warm, n int, f func()) float64 {
	for i := 0; i < warm; i++ {
		f()
	}
	durs := make([]time.Duration, n)
	for i := range durs {
		t0 := time.Now()
		f()
		durs[i] = time.Since(t0)
	}
	return median(micros(durs))
}
