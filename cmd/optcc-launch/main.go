// Command optcc-launch runs a process-per-rank training grid: it starts
// a coordinator, spawns one optcc-train process per (dp, stage) rank,
// and aggregates the per-rank reports into the run's final mean loss and
// per-class executed traffic — bit-identical to the single-process
// optcc-train run of the same flags, which the CI smoke job asserts.
//
// Example (a 2-stage, 2-group grid over unix sockets):
//
//	optcc-launch -config baseline -iters 5 -pp 2 -dp 2 -transport unix
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/collective"
	"repro/internal/train"
)

func main() {
	config := flag.String("config", "baseline", "config: baseline, cb, cbfe, cbfesc, naivedp, naivecb")
	iters := flag.Int("iters", 5, "training iterations")
	seed := flag.Int64("seed", 7, "random seed")
	pp := flag.Int("pp", 0, "pipeline-parallel stages (0 = config default)")
	dp := flag.Int("dp", 0, "data-parallel groups (0 = config default)")
	transport := flag.String("transport", "unix", "wire transport between ranks: unix or tcp")
	dpSync := flag.String("dp-sync", "overlapped", "DP synchronization mode passed to every rank")
	cbAlg := flag.String("cb-alg", "", "inter-stage compressor family passed to every rank (empty = the config's)")
	dpAlg := flag.String("dp-alg", "", "DP-sync compressor family passed to every rank (empty = the config's)")
	trainBin := flag.String("train-bin", "", "path to the optcc-train binary (default: next to this binary, then $PATH)")
	flag.Parse()

	// Family overrides ride along only when set, so a rank sees exactly
	// the flags a single-process optcc-train of the same run would.
	var algs []string
	if *cbAlg != "" {
		algs = append(algs, "-cb-alg", *cbAlg)
	}
	if *dpAlg != "" {
		algs = append(algs, "-dp-alg", *dpAlg)
	}
	if err := run(*config, *iters, *seed, *pp, *dp, *transport, *dpSync, *trainBin, algs); err != nil {
		fmt.Fprintln(os.Stderr, "optcc-launch:", err)
		os.Exit(1)
	}
}

func run(config string, iters int, seed int64, pp, dp int, transport, dpSync, trainBin string, algs []string) error {
	if transport != "unix" && transport != "tcp" {
		return fmt.Errorf("unknown -transport %q (want unix or tcp)", transport)
	}
	// The launcher resolves the grid exactly like optcc-train so world
	// and the loss denominator match the ranks' view of the same flags.
	cfg := train.DefaultConfig()
	if pp > 0 {
		cfg.Stages = pp
	}
	if dp > 0 {
		cfg.DPGroups = dp
	}
	world := cfg.Stages * cfg.DPGroups

	bin, err := resolveTrainBin(trainBin)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	coord := collective.NewCoordinator(world, ln)
	defer coord.Close()

	sockDir, err := os.MkdirTemp("", "occ-launch")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sockDir)

	// Spawn one optcc-train per rank; rank output goes to stderr under a
	// [rank N] prefix so the launcher's own stdout stays parseable.
	procs := make([]*exec.Cmd, world)
	exits := make(chan rankExit, world)
	for r := 0; r < world; r++ {
		cmd := exec.Command(bin, append([]string{
			"-config", config,
			"-iters", fmt.Sprint(iters),
			"-seed", fmt.Sprint(seed),
			"-pp", fmt.Sprint(cfg.Stages),
			"-dp", fmt.Sprint(cfg.DPGroups),
			"-dp-sync", dpSync,
			"-rank", fmt.Sprint(r),
			"-transport", transport,
			"-coord", coord.Addr(),
			"-sock-dir", sockDir,
		}, algs...)...)
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		errPipe, err := cmd.StderrPipe()
		if err != nil {
			return err
		}
		go prefixLines(os.Stderr, out, fmt.Sprintf("[rank %d] ", r))
		go prefixLines(os.Stderr, errPipe, fmt.Sprintf("[rank %d] ", r))
		if err := cmd.Start(); err != nil {
			killAll(procs)
			return fmt.Errorf("rank %d: %w", r, err)
		}
		procs[r] = cmd
		go func(r int, cmd *exec.Cmd) {
			exits <- rankExit{rank: r, err: cmd.Wait()}
		}(r, cmd)
	}

	// Either every rank reports (coordinator barrier) or a rank dies
	// first — then the run is torn down and the first failure propagates.
	type result struct {
		reports []collective.RankReport
		err     error
	}
	done := make(chan result, 1)
	go func() {
		reports, err := coord.Wait()
		done <- result{reports, err}
	}()

	var reports []collective.RankReport
	remaining := world
	for reports == nil {
		select {
		case res := <-done:
			if res.err != nil {
				killAll(procs)
				return res.err
			}
			reports = res.reports
		case e := <-exits:
			remaining--
			if e.err != nil {
				killAll(procs)
				return fmt.Errorf("rank %d: %w", e.rank, e.err)
			}
		}
	}
	for ; remaining > 0; remaining-- {
		if e := <-exits; e.err != nil {
			return fmt.Errorf("rank %d: %w", e.rank, e.err)
		}
	}

	// Aggregate in rank order: one rank per DP group contributes a loss
	// sum, so the additions replay the in-process trainer's sum exactly.
	var lossSum float64
	var agg collective.Stats
	var frameBytes int64
	for _, rep := range reports {
		lossSum += rep.LossSum
		for _, c := range collective.Classes() {
			agg[c].Bytes += rep.Stats[c].Bytes
			agg[c].Messages += rep.Stats[c].Messages
			agg[c].Steps += rep.Stats[c].Steps
		}
		frameBytes += rep.FrameBytes
	}
	fmt.Printf("grid: PP=%d DP=%d world=%d transport=%s config=%s iters=%d\n",
		cfg.Stages, cfg.DPGroups, world, transport, config, iters)
	fmt.Println("executed collective traffic (aggregated over ranks):")
	for _, c := range collective.Classes() {
		cs := agg.For(c)
		fmt.Printf("  %-4s %12d bytes  %9d messages  %7d steps\n", c, cs.Bytes, cs.Messages, cs.Steps)
	}
	fmt.Printf("framed wire volume: %d bytes\n", frameBytes)
	fmt.Printf("final training loss %.17g\n", lossSum/float64(cfg.DPGroups*cfg.MicroBatches))
	return nil
}

type rankExit struct {
	rank int
	err  error
}

// resolveTrainBin locates the optcc-train binary: explicit flag, then
// next to this executable, then $PATH.
func resolveTrainBin(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "optcc-train")
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	if p, err := exec.LookPath("optcc-train"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("optcc-train binary not found (build it next to optcc-launch or pass -train-bin)")
}

// prefixLines copies r to w line by line under a prefix.
func prefixLines(w io.Writer, r io.Reader, prefix string) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		fmt.Fprintf(w, "%s%s\n", prefix, sc.Text())
	}
}

// killAll terminates every started rank process (teardown on failure;
// Wait errors from killed processes are drained by their exit goroutines).
func killAll(procs []*exec.Cmd) {
	for _, cmd := range procs {
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
}
