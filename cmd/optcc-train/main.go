// Command optcc-train pretrains the stand-in language model for real
// under any Optimus-CC configuration, reporting training loss, validation
// perplexity over time, and zero-shot probe-task accuracy at the end —
// the quality half of the paper's evaluation.
//
// Examples:
//
//	optcc-train -config baseline -iters 600
//	optcc-train -config cb -iters 600
//	optcc-train -config naivecb -iters 600   # Fig. 3's quality collapse
//
// With -rank the command becomes one rank of a process-per-rank run
// (normally spawned by optcc-launch): it joins the coordinator, builds a
// socket transport to its peers, trains only its own (dp, stage) rank,
// and reports its loss sum and transport stats back — bit-identical, in
// aggregate, to the single-process run of the same flags.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/train"
)

var configs = map[string]func() core.Config{
	"baseline": core.Baseline,
	"cb":       core.CB,
	"cbfe":     core.CBFE,
	"cbfesc":   core.CBFESC,
	"naivedp":  core.NaiveDP,
	"naivecb":  core.NaiveCB,
}

func main() {
	config := flag.String("config", "baseline", "config: baseline, cb, cbfe, cbfesc, naivedp, naivecb")
	iters := flag.Int("iters", 600, "training iterations")
	evalEvery := flag.Int("eval-every", 100, "validation cadence")
	seed := flag.Int64("seed", 7, "random seed")
	stats := flag.Bool("stats", false, "collect Fig. 11 error/activation statistics")
	engine := flag.String("engine", "pipelined", "execution engine: pipelined (1F1B executor over the collective runtime) or reference (fully serial oracle)")
	cbAlg := flag.String("cb-alg", "", "override the inter-stage compressor family by registry name (powersgd, topk, randomk, terngrad, ...)")
	dpAlg := flag.String("dp-alg", "", "override the DP-sync compressor family by registry name (powersgd, terngrad, ...)")
	printPlan := flag.Bool("print-plan", false, "print the compiled communication/compression plan before training")
	dpSync := flag.String("dp-sync", "overlapped", "DP synchronization mode: overlapped (bucketed all-reduces issued during backward) or blocking (barrier after backward)")
	bucketBytes := flag.Int64("bucket-bytes", 0, "DP-sync bucket byte budget (0 = plan default)")
	checkpoint := flag.String("checkpoint", "", "write the final training state (v2: weights, momentum, error-feedback residuals) to this file")
	resume := flag.String("resume", "", "restore training state from this checkpoint before training (v2 resumes bit-identically)")
	trace := flag.String("trace", "", "record per-rank spans and write the executed run as Chrome trace-event JSON (pid 2; merge with optcc-sim -trace output to compare in Perfetto). Capacity is sized for -iters; keep traced runs to modest iteration counts")
	metricsOut := flag.String("metrics-out", "", "write the metrics-registry snapshot (counters) as JSON to this file")
	reconcile := flag.Bool("reconcile", false, "after training, reconcile the executed trace against the transport counters (tolerance 0) and the simulator's predictions; requires -trace")
	pp := flag.Int("pp", 0, "pipeline-parallel stages (0 = config default)")
	dp := flag.Int("dp", 0, "data-parallel groups (0 = config default)")
	tune := flag.Bool("autotune", false, "search the placement space at paper scale (sim as oracle) on this DP×PP grid, print the ranked table, train on the winner, and verify executed wire volumes == the autotuner's prediction (tol 0)")
	tuneBudget := flag.Float64("autotune-budget", 0.10, "autotune quality-loss budget (estimated ΔPPL)")
	tuneTop := flag.Int("autotune-top", 12, "autotune ranked-table rows to print (0 = all)")
	rank := flag.Int("rank", -1, "run as this rank of a process-per-rank grid (requires -coord; normally set by optcc-launch)")
	transport := flag.String("transport", "unix", "process-per-rank wire transport: unix or tcp")
	coord := flag.String("coord", "", "coordinator address (host:port) for process-per-rank runs")
	sockDir := flag.String("sock-dir", "", "directory for unix data sockets in process-per-rank runs")
	flag.Parse()

	mk, ok := configs[strings.ToLower(*config)]
	if !ok {
		fmt.Fprintf(os.Stderr, "optcc-train: unknown config %q\n", *config)
		os.Exit(1)
	}
	corpus, err := data.Generate(data.DefaultConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "optcc-train:", err)
		os.Exit(1)
	}
	eng, err := train.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optcc-train:", err)
		os.Exit(1)
	}
	cfg := train.DefaultConfig()
	cfg.MicroBatch = 32
	cfg.Opt = experiments.ScaledOpt(mk())
	if *cbAlg != "" {
		if !cfg.Opt.CompressBackprop {
			fmt.Fprintf(os.Stderr, "optcc-train: warning: -cb-alg %s has no effect: config %q does not compress backprop\n", *cbAlg, *config)
		}
		cfg.Opt.CBAlg = core.CBAlgorithm(*cbAlg)
	}
	if *dpAlg != "" {
		if !cfg.Opt.DPCompress() {
			fmt.Fprintf(os.Stderr, "optcc-train: warning: -dp-alg %s has no effect: config %q does not compress DP sync\n", *dpAlg, *config)
		}
		cfg.Opt.DPAlg = *dpAlg
	}
	cfg.Seed = *seed
	cfg.Model.Seed = *seed
	cfg.CollectStats = *stats
	cfg.Engine = eng
	cfg.BucketBytes = *bucketBytes
	if *pp > 0 {
		cfg.Stages = *pp
	}
	if *dp > 0 {
		cfg.DPGroups = *dp
	}
	if *reconcile && *trace == "" {
		fmt.Fprintln(os.Stderr, "optcc-train: -reconcile requires -trace (no spans to reconcile otherwise)")
		os.Exit(1)
	}
	if *trace != "" {
		cfg.TraceCapacity = train.TraceCapacityFor(cfg, *iters)
	}
	switch *dpSync {
	case "overlapped":
		cfg.DPSync = train.DPSyncOverlapped
	case "blocking":
		cfg.DPSync = train.DPSyncBlocking
	default:
		fmt.Fprintf(os.Stderr, "optcc-train: unknown -dp-sync %q (want overlapped or blocking)\n", *dpSync)
		os.Exit(1)
	}

	if *tune {
		if *rank >= 0 || *resume != "" {
			fmt.Fprintln(os.Stderr, "optcc-train: -autotune does not combine with -rank or -resume")
			os.Exit(1)
		}
		wcfg, res, err := tunePlan(cfg, *seed, *tuneBudget, *tuneTop)
		if err != nil {
			fmt.Fprintln(os.Stderr, "optcc-train:", err)
			os.Exit(1)
		}
		fmt.Print(res.Table())
		cfg.Opt = wcfg
	}

	if *rank >= 0 {
		if *trace != "" || *checkpoint != "" || *resume != "" || *stats {
			fmt.Fprintln(os.Stderr, "optcc-train: -rank mode does not support -trace, -checkpoint, -resume, or -stats")
			os.Exit(1)
		}
		if err := runRank(cfg, corpus, *rank, *transport, *coord, *sockDir, *iters); err != nil {
			fmt.Fprintln(os.Stderr, "optcc-train:", err)
			os.Exit(1)
		}
		return
	}

	tr, err := train.New(cfg, corpus)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optcc-train:", err)
		os.Exit(1)
	}
	defer tr.Close()
	if *printPlan {
		fmt.Println(tr.Plan())
		fmt.Printf("engine: %s\n", tr.Engine())
	}
	if *resume != "" {
		f, err := os.Open(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "optcc-train:", err)
			os.Exit(1)
		}
		err = tr.LoadCheckpoint(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "optcc-train:", err)
			os.Exit(1)
		}
		fmt.Printf("resumed from %s at iteration %d\n", *resume, tr.Iteration())
	}
	fmt.Printf("config=%s  model: V=%d H=%d blocks=%d  PP=%d DP=%d  micro=%d×%d\n",
		cfg.Opt.Name(), cfg.Model.Vocab, cfg.Model.Hidden, cfg.Model.Blocks,
		cfg.Stages, cfg.DPGroups, cfg.MicroBatch, cfg.MicroBatches)

	finalLoss := tr.Train(*iters, func(it int, loss float64) {
		if it%*evalEvery == 0 || it == *iters {
			fmt.Printf("iter %5d  loss %7.4f  val PPL %7.3f\n", it, loss, tr.ValidationPerplexity(500))
		}
	})
	// Full precision, one line: the multi-process smoke compares this
	// against optcc-launch's aggregate bit for bit.
	fmt.Printf("final training loss %.17g\n", finalLoss)

	tasks := data.TaskSuite(corpus, cfg.Model.Context, 200, *seed+1000)
	accs := tr.TaskAccuracies(tasks)
	var names []string
	for n := range accs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("zero-shot probe tasks:")
	for _, n := range names {
		fmt.Printf("  %-10s %5.1f%%\n", n, accs[n]*100)
	}
	if *stats {
		eps, diff, cos := tr.Stats().Summary()
		fmt.Printf("Fig. 11 conditions: |Avg ε|=%.5f  |Avg ΔY|=%.5f  |cos|=%.5f over %d sends\n",
			eps, diff, cos, tr.Stats().Count())
	}
	if st, ok := tr.CollectiveStats(); ok {
		fmt.Println("executed collective traffic:")
		for _, c := range collective.Classes() {
			cs := st.For(c)
			fmt.Printf("  %-4s %12d bytes  %9d messages  %7d steps\n", c, cs.Bytes, cs.Messages, cs.Steps)
		}
	}
	if *tune {
		if err := verifyAutotuned(tr, *iters); err != nil {
			fmt.Fprintln(os.Stderr, "optcc-train:", err)
			os.Exit(1)
		}
	}
	if *reconcile {
		rep, err := tr.ReconcileTrace()
		if err != nil {
			fmt.Fprintln(os.Stderr, "optcc-train:", err)
			os.Exit(1)
		}
		fmt.Print(rep)
	}
	if *trace != "" {
		name := fmt.Sprintf("optcc-train %s dp%d×pp%d", cfg.Opt.Name(), cfg.DPGroups, cfg.Stages)
		if err := writeTrace(tr, *trace, name); err != nil {
			fmt.Fprintln(os.Stderr, "optcc-train:", err)
			os.Exit(1)
		}
		fmt.Printf("executed trace written to %s (%d spans, %d dropped)\n",
			*trace, tr.Recorder().Count(), tr.Recorder().Dropped())
	}
	if *metricsOut != "" {
		if err := writeMetrics(tr, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "optcc-train:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}
	if *checkpoint != "" {
		if err := writeCheckpoint(tr, *checkpoint); err != nil {
			fmt.Fprintln(os.Stderr, "optcc-train:", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint written to %s\n", *checkpoint)
	}
}

// runRank executes one rank of a process-per-rank run: rendezvous with
// the coordinator, socket transport to the peers, training gated to this
// rank's (dp, stage) share, and the end-of-run report. The configuration
// must be flag-identical across ranks (optcc-launch guarantees this):
// every process seeds the same model and data RNG, so the grid's
// aggregate is bit-identical to the single-process run of the same flags.
func runRank(cfg train.Config, corpus *data.Corpus, rank int, network, coordAddr, sockDir string, iters int) error {
	world := cfg.Stages * cfg.DPGroups
	if rank >= world {
		return fmt.Errorf("-rank %d outside world %d", rank, world)
	}
	if coordAddr == "" {
		return fmt.Errorf("-rank requires -coord")
	}
	var ln net.Listener
	var err error
	switch network {
	case "unix":
		if sockDir == "" {
			return fmt.Errorf("-transport unix requires -sock-dir")
		}
		ln, err = net.Listen("unix", filepath.Join(sockDir, fmt.Sprintf("rank-%d.sock", rank)))
	case "tcp":
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	default:
		err = fmt.Errorf("unknown -transport %q (want unix or tcp)", network)
	}
	if err != nil {
		return err
	}
	peer, peers, err := collective.JoinCoordinator("tcp", coordAddr, rank, world, ln.Addr().String(), time.Minute)
	if err != nil {
		ln.Close()
		return err
	}
	st, err := collective.NewSocketTransportListener(collective.SocketConfig{
		Network: network,
		Rank:    rank,
		World:   world,
		Addrs:   peers,
	}, ln)
	if err != nil {
		return err
	}
	cfg.Dist = &train.DistConfig{Transport: st}
	tr, err := train.New(cfg, corpus)
	if err != nil {
		st.Close()
		return err
	}
	defer tr.Close()
	for i := 0; i < iters; i++ {
		tr.TrainIteration()
	}
	rep := collective.RankReport{
		LossSum:    tr.LastIterationLossSum(),
		Stats:      st.Stats(),
		FrameBytes: st.FrameBytes(),
	}
	// The report ack is the completion barrier: every rank has reached it
	// before any data socket closes, so no send can hit a dead peer.
	if err := peer.Report(rank, rep, 2*time.Minute); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// writeTrace exports the executed-run trace to path, propagating the
// Close error (an unflushed trace must not report success).
func writeTrace(tr *train.Trainer, path, processName string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteRecorderTrace(f, tr.Recorder(), processName); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics snapshots the trainer's counter registry to path as JSON.
func writeMetrics(tr *train.Trainer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Metrics().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCheckpoint saves the training state to path, propagating the
// Close error: a checkpoint whose final flush failed (full disk, broken
// mount) must not report a successful save.
func writeCheckpoint(tr *train.Trainer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.SaveCheckpoint(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
