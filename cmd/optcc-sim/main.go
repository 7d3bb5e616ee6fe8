// Command optcc-sim runs the calibrated timing simulator on the paper's
// cluster for any model / parallel-mapping / Optimus-CC configuration,
// printing iteration time, projected training days, an exposed-time
// breakdown (Fig. 3/10 style), and optionally an ASCII timing diagram
// (Fig. 4 style).
//
// Examples:
//
//	optcc-sim -model 2.5b -config baseline -timeline
//	optcc-sim -model 8.3b -config cbfesc
//	optcc-sim -model 9.2b -config cbfesc -tp 2 -pp 16
//	optcc-sim -model 2.5b -autotune -autotune-assert
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/autotune"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

var specs = map[string]cluster.GPTSpec{
	"2.5b": cluster.GPT25B,
	"8.3b": cluster.GPT83B,
	"9.2b": cluster.GPT92B,
	"39b":  cluster.GPT39B,
	"175b": cluster.GPT175B,
}

var configs = map[string]func() core.Config{
	"baseline": core.Baseline,
	"cb":       core.CB,
	"cbfe":     core.CBFE,
	"cbfesc":   core.CBFESC,
	"naivedp":  core.NaiveDP,
	"naivecb":  core.NaiveCB,
}

func main() {
	model := flag.String("model", "2.5b", "model: 2.5b, 8.3b, 9.2b, 39b, 175b")
	config := flag.String("config", "baseline", "config: baseline, cb, cbfe, cbfesc, naivedp, naivecb")
	tp := flag.Int("tp", 8, "tensor-parallel ways")
	dp := flag.Int("dp", 4, "data-parallel ways")
	pp := flag.Int("pp", 4, "pipeline-parallel ways")
	nodes := flag.Int("nodes", 16, "cluster nodes (8 GPUs each)")
	iters := flag.Int("iters", 230000, "training iterations for the day projection")
	timeline := flag.Bool("timeline", false, "print the Fig. 4 style ASCII timing diagram")
	width := flag.Int("width", 120, "timeline width in columns")
	trace := flag.String("trace", "", "write the predicted iteration as Chrome trace-event JSON (pid 1; merge with an executed optcc-train -trace file to compare in Perfetto)")
	price := flag.Bool("price", false, "print the candidate's sim.Estimate as JSON and exit — the same wire format optcc-serve's /v1/price returns, for bit-for-bit diffing (CI smoke)")
	bucketBytes := flag.Int64("bucket-bytes", 0, "DP-sync bucket budget in bytes for -price (0 = plan default; negative is an error)")
	tune := flag.Bool("autotune", false, "search the placement space with the simulator as the oracle and print the ranked candidate table (no simulation run)")
	tuneBudget := flag.Float64("autotune-budget", 0.10, "quality-loss budget (estimated ΔPPL) candidates must fit")
	tuneSeed := flag.Int64("autotune-seed", 1, "search seed (same seed, same ranked table)")
	tuneMax := flag.Int("autotune-max", 4096, "admitted-space size up to which the search is exhaustive; larger spaces anneal")
	tuneTop := flag.Int("autotune-top", 12, "ranked-table rows to print (0 = all)")
	tuneAssert := flag.Bool("autotune-assert", false, "exit 1 unless the winner's predicted cost ≤ the hand-picked cbfesc plan's (CI smoke)")
	flag.Parse()

	spec, ok := specs[strings.ToLower(*model)]
	if !ok {
		fatalf("unknown model %q (have: %v)", *model, keys(specs))
	}
	mk, ok := configs[strings.ToLower(*config)]
	if !ok {
		fatalf("unknown config %q (have: %v)", *config, keys(configs))
	}

	eff, err := experiments.CalibratedEfficiency()
	if err != nil {
		fatalf("calibration: %v", err)
	}
	sc := sim.PaperScenario(spec, mk())
	sc.Map = cluster.Mapping{TP: *tp, DP: *dp, PP: *pp}
	sc.Topo.Nodes = *nodes
	sc.Topo.Efficiency = eff
	sc.Iterations = *iters

	if *price {
		runPrice(sc, *bucketBytes)
		return
	}
	if *tune {
		runAutotune(sc, *tuneBudget, *tuneSeed, *tuneMax, *tuneTop, *tuneAssert)
		return
	}

	r, err := sim.Simulate(sc)
	if err != nil {
		fatalf("simulate: %v", err)
	}
	fmt.Printf("%s on %d GPUs (%s), %s\n", spec.Name, sc.Map.Ways(), sc.Map, sc.Cfg.Name())
	fmt.Print(sim.BreakdownReport(sc.Cfg.Name(), r))
	if *timeline {
		tl, err := sim.Timeline(sc, *width)
		if err != nil {
			fatalf("timeline: %v", err)
		}
		fmt.Println()
		fmt.Print(tl)
	}
	if *trace != "" {
		if err := writeTrace(sc, *trace); err != nil {
			fatalf("trace: %v", err)
		}
		fmt.Printf("predicted trace written to %s\n", *trace)
	}
}

// runPrice prices the candidate through the same sim.Evaluator path
// optcc-serve uses and prints the Estimate as one JSON line. CI diffs
// this (jq -S canonicalized) against the service's .estimate field to
// prove served numbers are bit-identical to direct evaluation.
func runPrice(sc sim.Scenario, bucketBytes int64) {
	ev, err := sim.NewEvaluator(sc)
	if err != nil {
		fatalf("price: %v", err)
	}
	est, err := ev.Price(sc.Cfg, bucketBytes)
	if err != nil {
		fatalf("price: %v", err)
	}
	data, err := json.Marshal(est)
	if err != nil {
		fatalf("price: %v", err)
	}
	fmt.Println(string(data))
}

// runAutotune searches the placement space on the scenario's grid and
// prints the ranked candidate table. With assert set it additionally
// requires the winner's predicted cost to match or beat the hand-picked
// cbfesc plan — the CI smoke check.
func runAutotune(sc sim.Scenario, budget float64, seed int64, max, top int, assert bool) {
	ev, err := sim.NewEvaluator(sc)
	if err != nil {
		fatalf("autotune: %v", err)
	}
	qm := autotune.DefaultQualityModel()
	qm.Budget = budget
	res, err := autotune.Search(ev, autotune.DefaultSpace(sc.Map.PP), qm, autotune.Options{
		Seed: seed, ExhaustiveLimit: max, Top: top,
	})
	if err != nil {
		fatalf("autotune: %v", err)
	}
	fmt.Print(res.Table())
	if assert {
		hand, err := ev.Price(core.CBFESC(), 0)
		if err != nil {
			fatalf("autotune: pricing hand-picked plan: %v", err)
		}
		if res.Winner.Estimate.IterationSec > hand.IterationSec+1e-12 {
			fatalf("autotune: winner %s predicts %.6fs, hand-picked cbfesc %.6fs — search lost to the hand-picked point",
				res.Winner.Candidate.Key(), res.Winner.Estimate.IterationSec, hand.IterationSec)
		}
		fmt.Printf("assert ok: winner %.4fs ≤ hand-picked cbfesc %.4fs\n",
			res.Winner.Estimate.IterationSec, hand.IterationSec)
	}
}

// writeTrace saves the predicted-iteration trace to path, propagating
// the Close error (an unflushed trace must not report success).
func writeTrace(sc sim.Scenario, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sim.WriteTrace(sc, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func keys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "optcc-sim: "+format+"\n", args...)
	os.Exit(1)
}
