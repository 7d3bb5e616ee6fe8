package autotune

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Pricer prices one candidate configuration and compiles its plan.
// *sim.Evaluator is the canonical implementation (frozen-sequence
// batch pricing); tests substitute deterministic fakes. Search always
// passes bucketBytes 0, the plan default; other callers (the what-if
// service, optcc-sim -price) price any budget through the same method.
type Pricer interface {
	Price(cfg core.Config, bucketBytes int64) (sim.Estimate, error)
	Plan(cfg core.Config, bucketBytes int64) (*plan.Plan, error)
}

// Options tunes the search.
type Options struct {
	// Seed drives the annealer and the candidate configs' compressor
	// seeds. The same seed always yields the same ranked table.
	Seed int64
	// ExhaustiveLimit is the admitted-space size up to which the search
	// enumerates exhaustively; larger spaces anneal. Default 4096.
	ExhaustiveLimit int
	// AnnealEvals is the annealer's proposal budget. Default 800.
	AnnealEvals int
	// Top truncates the ranked table (0 keeps everything).
	Top int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ExhaustiveLimit == 0 {
		o.ExhaustiveLimit = 4096
	}
	if o.AnnealEvals == 0 {
		o.AnnealEvals = 800
	}
	return o
}

// Ranked is one priced candidate with its cost breakdown.
type Ranked struct {
	Candidate Candidate
	Config    core.Config
	Estimate  sim.Estimate
	// LossPPL is the quality model's estimated ΔPPL.
	LossPPL float64
}

// Result is the search outcome: the full ranking (best first) plus the
// winner's compiled plan.
type Result struct {
	Mode string // "exhaustive" or "anneal"
	Seed int64
	// Enumerated counts the whole space; Admitted the candidates inside
	// the quality budget; Priced the distinct candidates actually
	// evaluated; Rejected the distinct candidates dropped before or at
	// pricing (quality budget, validation, or plan-compile errors).
	Enumerated, Admitted, Priced, Rejected int
	// Ranked is sorted by (IterationSec, Key) — a total order, so
	// equal-cost candidates rank deterministically. Truncated
	// to Options.Top when set.
	Ranked []Ranked
	// Winner is Ranked[0] (kept separately so table truncation can
	// never lose it); WinnerPlan its compiled plan.
	Winner     Ranked
	WinnerPlan *plan.Plan
}

// Search runs the plan-space search: enumerate the space, reject
// candidates outside the quality budget, price the rest — exhaustively
// when the admitted space fits Options.ExhaustiveLimit, by seeded
// simulated annealing otherwise — and rank them. Candidates the pricer
// rejects (plan-compile errors) are counted in Rejected and skipped.
func Search(pr Pricer, sp Space, qm QualityModel, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if sp.Stages < 1 {
		return nil, fmt.Errorf("autotune: space has no stages")
	}
	all := sp.Enumerate()
	res := &Result{Seed: opts.Seed, Enumerated: len(all)}
	var admitted []Candidate
	for _, c := range all {
		if c.Validate(sp.Stages) != nil || !qm.Admits(c, sp.Stages) {
			res.Rejected++
			continue
		}
		admitted = append(admitted, c)
	}
	res.Admitted = len(admitted)
	if len(admitted) == 0 {
		return nil, fmt.Errorf("autotune: quality budget %.3f admits no candidate of the %d-candidate space", qm.Budget, len(all))
	}

	price := func(c Candidate) (Ranked, bool) {
		cfg := c.Config(sp.Stages, opts.Seed)
		est, err := pr.Price(cfg, 0)
		if err != nil {
			res.Rejected++
			return Ranked{}, false
		}
		res.Priced++
		return Ranked{Candidate: c, Config: cfg, Estimate: est, LossPPL: qm.EstimateLoss(c, sp.Stages)}, true
	}

	if len(admitted) <= opts.ExhaustiveLimit {
		res.Mode = "exhaustive"
		for _, c := range admitted {
			if r, ok := price(c); ok {
				res.Ranked = append(res.Ranked, r)
			}
		}
	} else {
		res.Mode = "anneal"
		res.Ranked = anneal(admitted, sp, qm, opts, price)
	}
	if len(res.Ranked) == 0 {
		return nil, fmt.Errorf("autotune: no candidate priced successfully (%d rejected)", res.Rejected)
	}

	sort.SliceStable(res.Ranked, func(i, j int) bool {
		a, b := res.Ranked[i], res.Ranked[j]
		if a.Estimate.IterationSec != b.Estimate.IterationSec {
			return a.Estimate.IterationSec < b.Estimate.IterationSec
		}
		return a.Candidate.Key() < b.Candidate.Key()
	})
	res.Winner = res.Ranked[0]
	if opts.Top > 0 && len(res.Ranked) > opts.Top {
		res.Ranked = res.Ranked[:opts.Top]
	}
	wp, err := pr.Plan(res.Winner.Config, 0)
	if err != nil {
		return nil, fmt.Errorf("autotune: winner failed to recompile: %w", err)
	}
	res.WinnerPlan = wp
	return res, nil
}

// anneal walks the admitted space by seeded simulated annealing: start
// from the dense candidate, re-draw one dimension per proposal, accept
// improvements always and regressions with Boltzmann probability under
// a geometric temperature schedule. Every distinct candidate priced
// along the walk lands in the ranking (deduplicated by key), so the
// final sort sees the whole explored set. Each distinct candidate is
// priced at most once, so a pricing failure is counted once however
// often the walk proposes it; a proposal outside the quality budget is
// a member of the space that enumeration already counted.
func anneal(admitted []Candidate, sp Space, qm QualityModel, opts Options,
	price func(Candidate) (Ranked, bool)) []Ranked {
	rng := rand.New(rand.NewSource(opts.Seed))
	type outcome struct {
		r  Ranked
		ok bool
	}
	seen := make(map[string]outcome)
	var out []Ranked
	eval := func(c Candidate) (Ranked, bool) {
		k := c.Key()
		if o, ok := seen[k]; ok {
			return o.r, o.ok
		}
		r, ok := price(c)
		seen[k] = outcome{r, ok}
		if ok {
			out = append(out, r)
		}
		return r, ok
	}

	cur := Candidate{} // dense baseline: always inside any budget ≥ 0
	curR, ok := eval(cur)
	if !ok {
		// The dense plan failing to price means the scenario itself is
		// broken; fall back to the first admitted candidate.
		cur = admitted[0]
		if curR, ok = eval(cur); !ok {
			return nil
		}
	}
	t0 := 0.10 * curR.Estimate.IterationSec
	decay := math.Pow(1e-3, 1/math.Max(1, float64(opts.AnnealEvals)))
	temp := t0
	for i := 0; i < opts.AnnealEvals; i++ {
		temp *= decay
		next := cur.Mutate(rng, sp)
		if next.Validate(sp.Stages) != nil || !qm.Admits(next, sp.Stages) {
			continue
		}
		nextR, ok := eval(next)
		if !ok {
			continue
		}
		delta := nextR.Estimate.IterationSec - curR.Estimate.IterationSec
		if delta <= 0 || rng.Float64() < math.Exp(-delta/math.Max(temp, 1e-12)) {
			cur, curR = next, nextR
		}
	}
	return out
}

// Table renders the ranked candidates as a fixed-width text table —
// stable across runs with the same seed (golden-tested), suitable for
// the CLIs and the experiments report.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "autotune: %s search, seed %d — %d enumerated, %d admitted, %d priced, %d rejected\n",
		r.Mode, r.Seed, r.Enumerated, r.Admitted, r.Priced, r.Rejected)
	fmt.Fprintf(&b, "%4s  %-46s %10s %9s %9s %9s %11s %9s %8s %8s\n",
		"#", "candidate", "iter(s)", "exp.pp", "exp.dp", "exp.emb", "pp.MB/rep", "dp.MB", "emb.MB", "est.dPPL")
	mb := func(v int64) float64 { return float64(v) / 1e6 }
	for i, row := range r.Ranked {
		e := row.Estimate
		fmt.Fprintf(&b, "%4d  %-46s %10.4f %9.4f %9.4f %9.4f %11.1f %9.1f %8.1f %8.3f\n",
			i+1, row.Candidate.Key(), e.IterationSec, e.ExposedPPSec, e.ExposedDPSec, e.ExposedEmbSec,
			mb(e.PPBytesPerReplica), mb(e.DPBytes), mb(e.EmbBytes), row.LossPPL)
	}
	fmt.Fprintf(&b, "winner: %s (predicted iteration %.4fs)\n",
		r.Winner.Candidate.Key(), r.Winner.Estimate.IterationSec)
	return b.String()
}
