package main

import (
	"time"

	"repro/internal/autotune"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sim"
)

// autotune-search runs the plan-space search over DefaultSpace(4) under
// the default quality budget on the paper's GPT-2.5B scenario. Plan compile
// and frozen-sequence pricing do all the work; no tensor or collective code
// runs, so a trainer-side change must leave every number here flat.

// searchWarmups is how many searches a set-up runs before timing starts.
const searchWarmups = 3

func paperScenario() sim.Scenario { return sim.PaperScenario(cluster.GPT25B, core.Baseline()) }

// searchState is a built autotune workload.
type searchState struct {
	ev   *sim.Evaluator
	sp   autotune.Space
	qm   autotune.QualityModel
	opts autotune.Options
}

func newSearchState(seed int64) (*searchState, error) {
	ev, err := sim.NewEvaluator(paperScenario())
	if err != nil {
		return nil, err
	}
	return &searchState{
		ev:   ev,
		sp:   autotune.DefaultSpace(4),
		qm:   autotune.DefaultQualityModel(),
		opts: autotune.Options{Seed: seed, Top: 12},
	}, nil
}

func (s *searchState) search(pr autotune.Pricer) (*autotune.Result, error) {
	return autotune.Search(pr, s.sp, s.qm, s.opts)
}

func autotuneWorkload() workload {
	return workload{
		name:  wlAutotune,
		why:   "plan compile + frozen-sequence pricing of ~250 admitted candidates per search; no tensor or collective code runs, so trainer-side changes must leave it flat",
		run:   autotuneRun,
		trace: autotuneTrace,
	}
}

func autotuneRun(env runEnv) (*passResult, error) {
	res := newPassResult()
	var series [][]time.Duration
	var table string // the first search's ranked table
	var enumerated int
	var differ int64
	setups, err := overBuilds(env.window(),
		func() (*searchState, error) {
			s, err := newSearchState(env.seed)
			if err != nil {
				return nil, err
			}
			for i := 0; i < searchWarmups; i++ {
				first, err := s.search(s.ev)
				if err != nil {
					return nil, err
				}
				if table == "" {
					table, enumerated = first.Table(), first.Enumerated
				}
			}
			return s, nil
		},
		func(st *searchState, window time.Duration) error {
			durs, failed := loop(window, 20, func(int) bool {
				r, err := st.search(st.ev)
				if err != nil {
					return false
				}
				if r.Table() != table {
					differ++
				}
				return true
			})
			series = append(series, durs)
			res.attempted += int64(len(durs))
			res.failed += failed
			return nil
		},
		func(*searchState) {})
	if err != nil {
		return nil, err
	}
	res.endToEndMetrics(timed{series: series, clients: 1, setups: setups, workPerOp: float64(enumerated)})
	res.expect("every search renders the same ranked table", differ == 0, "%d of %d tables differ from the first", differ, res.attempted)
	return res, nil
}

// spanPricer wraps a Pricer with the benchmark's spans around Price and
// Plan, the attribution autotune.Search itself does not record.
type spanPricer struct {
	inner autotune.Pricer
	epoch time.Time
	spans []span
}

func (p *spanPricer) record(name string, t0 time.Time) {
	p.spans = append(p.spans, spanAt(p.epoch, name, t0, time.Since(t0)))
}

func (p *spanPricer) Price(cfg core.Config, bucketBytes int64) (sim.Estimate, error) {
	defer p.record("price", time.Now())
	return p.inner.Price(cfg, bucketBytes)
}

func (p *spanPricer) Plan(cfg core.Config, bucketBytes int64) (*plan.Plan, error) {
	defer p.record("plan", time.Now())
	return p.inner.Plan(cfg, bucketBytes)
}

func autotuneTrace(env runEnv) (*passResult, error) {
	res := newPassResult()
	st, err := newSearchState(env.seed)
	if err != nil {
		return nil, err
	}
	first, err := st.search(st.ev)
	if err != nil {
		return nil, err
	}

	// Untraced searches: allocations per search.
	mem := startMemProbe()
	plain, failed := loop(env.share(untracedShare), 20, func(int) bool {
		_, err := st.search(st.ev)
		return err == nil
	})
	alloc := mem.since()
	res.attempted += int64(len(plain))
	res.failed += failed
	res.set("autotune.search_allocs", float64(alloc.mallocs)/float64(len(plain)), len(plain))

	// Traced searches: a root span per search, a child span per pricer call.
	pr := &spanPricer{inner: st.ev, epoch: time.Now()}
	var roots []span
	traced, failed := loop(env.share(tracedShare), 20, func(int) bool {
		t0 := time.Now()
		_, err := st.search(pr)
		roots = append(roots, spanAt(pr.epoch, "search", t0, time.Since(t0)))
		return err == nil
	})
	res.attempted += int64(len(traced))
	res.failed += failed
	tot := newPhaseTotals()
	tot.addTrack(append(append([]span(nil), roots...), pr.spans...))
	res.set("autotune.nonprice_share", float64(tot.self["search"])/float64(tot.total["search"]), len(traced))
	res.tracks = []traceTrack{{name: "bench/search", spans: roots}, {name: "bench/pricer", spans: pr.spans}}

	res.set("autotune.enumerated", float64(first.Enumerated), 1)
	res.set("autotune.priced", float64(first.Priced), 1)
	res.set("autotune.admit_ratio", float64(first.Admitted)/float64(first.Enumerated), 1)
	res.set("sim.winner_iter_s", first.Winner.Estimate.IterationSec, 1)

	if err := simValues(res, st.ev, pricingProbes(res, st.ev)); err != nil {
		return nil, err
	}
	res.set("autotune.sim_speedup", res.metrics["sim.baseline_iter_s"]/first.Winner.Estimate.IterationSec, 1)
	res.set("sim.simulate_ms", timeCalls(1, 9, func() {
		sim.Simulate(sim.PaperScenario(cluster.GPT25B, core.CBFESC()))
	})/1e3, 9)
	return res, nil
}

// pricingProbes times the plan and sim layers' public functions on the
// paper scenario — evaluator construction, plan compile, pricing — and
// returns the pricing time.
func pricingProbes(res *passResult, ev *sim.Evaluator) (priceUs float64) {
	cfg := core.CBFESC()
	res.set("sim.new_evaluator_ms", timeCalls(1, 9, func() { sim.NewEvaluator(paperScenario()) })/1e3, 9)
	res.set("plan.compile_us", timeCalls(probeWarm, probeCalls, func() { ev.Plan(cfg, 0) }), probeCalls)
	priceUs = timeCalls(probeWarm, probeCalls, func() { ev.Price(cfg, 0) })
	res.set("sim.price_us", priceUs, probeCalls)
	return priceUs
}

// simValues records what the simulator computes, which a host-time change
// must leave identical: the event graph's size, the compiled plan's bucket
// count, and the simulated iteration times.
func simValues(res *passResult, ev *sim.Evaluator, priceUs float64) error {
	cfg := core.CBFESC()
	pl, err := ev.Plan(cfg, 0)
	if err != nil {
		return err
	}
	buckets := 0
	for s := 0; s < pl.Grid().Stages; s++ {
		buckets += pl.BucketCount(s)
	}
	res.set("plan.buckets", float64(buckets), 1)
	base, err := ev.Price(core.Baseline(), 0)
	if err != nil {
		return err
	}
	full, err := ev.Price(cfg, 0)
	if err != nil {
		return err
	}
	res.set("sim.baseline_iter_s", base.IterationSec, 1)
	res.set("sim.cbfesc_iter_s", full.IterationSec, 1)
	mem := startMemProbe()
	for i := 0; i < probeCalls; i++ {
		ev.Price(cfg, 0)
	}
	res.set("sim.price_allocs", float64(mem.since().mallocs)/probeCalls, probeCalls)
	g, err := sim.BuildGraph(paperScenario(), nil)
	if err != nil {
		return err
	}
	tasks := len(g.Tasks())
	res.set("simnet.tasks", float64(tasks), 1)
	res.set("sim.price_ns_per_task", priceUs*1e3/float64(tasks), probeCalls)
	return nil
}
