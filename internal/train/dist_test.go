package train

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
)

// distTransports builds a fully rendezvoused world of in-process unix
// SocketTransports — one per rank, exactly what optcc-launch gives each
// OS process, minus the process boundary (which adds nothing the race
// detector and the transport do not already cover).
func distTransports(t *testing.T, world int) []*collective.SocketTransport {
	t.Helper()
	// Short paths: sun_path caps unix socket addresses at ~100 bytes, and
	// t.TempDir() grows with the test name.
	dir, err := os.MkdirTemp("", "occ")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	addrs := make([]string, world)
	for r := range addrs {
		addrs[r] = filepath.Join(dir, fmt.Sprintf("r%d.sock", r))
	}
	trs := make([]*collective.SocketTransport, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = collective.NewSocketTransport(collective.SocketConfig{
				Network:     "unix",
				Rank:        r,
				World:       world,
				Addrs:       addrs,
				DialTimeout: 20 * time.Second,
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d transport: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	return trs
}

// TestDistTrainerMatchesInProcessOracle is the train-layer cross-transport
// oracle: the same configuration is trained three ways — the fully serial
// reference engine, the in-process runtime over MemTransport, and a
// process-per-rank grid where every rank is its own trainer over its own
// SocketTransport — and all three must agree bit for bit: every stage's
// weights at tolerance zero, the per-iteration loss, and (between the two
// transport-backed runs) the aggregated per-class byte/message/step
// accounting.
func TestDistTrainerMatchesInProcessOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank socket grids are not short")
	}
	const iters = 3

	cbfesc := core.CBFESC()
	cbfesc.CBRank = 2
	cbfesc.DPRank = 2
	cbTopK := scaledCB()
	cbTopK.CBAlg = core.CBTopK

	cases := []struct {
		name         string
		opt          core.Config
		stages       int
		microBatches int
		bucketBytes  int64 // 0: the default budget, one bucket per stage here
	}{
		{"baseline-2x4", core.Baseline(), 4, 4, 0},
		{"cbfesc-2x4", cbfesc, 4, 4, 0},
		{"cbfesc-2x4-m2", cbfesc, 4, 2, 0},
		{"cbfesc-2x4-small-buckets", cbfesc, 4, 4, smallBucketBudgets[1]},
		{"cb-topk-2x4", cbTopK, 4, 4, 0},
		// Single-stage grids: each process runs one rank of pure data
		// parallelism on the 1F1B executor, DP sync included.
		{"baseline-2x1", core.Baseline(), 1, 4, 0},
		{"cbfesc-2x1", cbfesc, 1, 4, 0},
	}
	// framed[name] is the case's socket grid's summed FrameBytes.
	framed := map[string]int64{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(tc.opt)
			cfg.Stages = tc.stages
			cfg.MicroBatches = tc.microBatches
			cfg.BucketBytes = tc.bucketBytes
			world := cfg.DPGroups * cfg.Stages
			corpus := testCorpus(t)

			run := func(c Config) (*Trainer, float64) {
				tr, err := New(c, corpus)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(tr.Close)
				var loss float64
				for i := 0; i < iters; i++ {
					loss = tr.TrainIteration()
				}
				return tr, loss
			}

			refCfg := cfg
			refCfg.Engine = EngineReference
			ref, refLoss := run(refCfg)
			mem, memLoss := run(cfg)
			if memLoss != refLoss {
				t.Fatalf("mem loss %g != reference loss %g", memLoss, refLoss)
			}

			// One trainer per rank, each over its own socket transport —
			// the in-process twin of the optcc-launch process grid.
			trs := distTransports(t, world)
			dist := make([]*Trainer, world)
			errs := make([]error, world)
			var wg sync.WaitGroup
			for r := 0; r < world; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					c := cfg
					c.Dist = &DistConfig{Transport: trs[r]}
					tr, err := New(c, corpus)
					if err != nil {
						errs[r] = err
						return
					}
					dist[r] = tr
					for i := 0; i < iters; i++ {
						tr.TrainIteration()
					}
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			defer func() {
				for _, tr := range dist {
					tr.Close()
				}
			}()

			// Every rank's local stage must match the in-process run (and
			// through it the serial reference) at tolerance zero.
			for d := 0; d < cfg.DPGroups; d++ {
				for s := 0; s < cfg.Stages; s++ {
					for pi, p := range mem.params[d][s] {
						if !p.Equal(ref.params[d][s][pi], 0) {
							t.Fatalf("mem (%d,%d) param %d differs from reference", d, s, pi)
						}
					}
					r := d*cfg.Stages + s
					for pi, p := range dist[r].params[d][s] {
						if !p.Equal(mem.params[d][s][pi], 0) {
							t.Fatalf("dist rank %d (%d,%d) param %d differs from mem run", r, d, s, pi)
						}
					}
				}
			}

			// The per-process loss sums aggregate to the single-process
			// mean exactly: one rank per DP group contributes, in group
			// order, so the float additions replay the in-process sum.
			var lossSum float64
			for _, tr := range dist {
				lossSum += tr.LastIterationLossSum()
			}
			denom := float64(cfg.DPGroups * cfg.MicroBatches)
			if got := lossSum / denom; got != memLoss {
				t.Fatalf("aggregated dist loss %g != mem loss %g", got, memLoss)
			}

			// Aggregated per-class executed traffic must equal the
			// in-process transport's, byte for byte.
			memStats, ok := mem.CollectiveStats()
			if !ok {
				t.Fatal("mem run has no collective stats")
			}
			var agg collective.Stats
			for _, tr := range trs {
				st := tr.Stats()
				for _, c := range collective.Classes() {
					agg[c].Bytes += st[c].Bytes
					agg[c].Messages += st[c].Messages
					agg[c].Steps += st[c].Steps
				}
			}
			if agg != memStats {
				t.Fatalf("aggregated dist stats %+v != mem stats %+v", agg, memStats)
			}
			// …and on the dp class, messages and steps are the per-bucket
			// closed form: one ring and one payload gather per bucket,
			// however many gradients it holds.
			msgs, steps := dpSyncClosedForm(mem)
			if dp := agg.For(collective.ClassDP); dp.Messages != msgs*iters || dp.Steps != steps*iters {
				t.Fatalf("dp class took %d messages in %d steps over %d iterations, the per-bucket closed form says %d in %d",
					dp.Messages, dp.Steps, iters, msgs*iters, steps*iters)
			}
			for _, tr := range trs {
				framed[tc.name] += tr.FrameBytes()
			}
		})
	}
	// Compression must win on the real wire, not only in the model: with
	// payloads framed in factor form, the full Optimus-CC configuration
	// writes fewer bytes to its sockets than the dense baseline does on
	// the same grid.
	if cb, base := framed["cbfesc-2x4"], framed["baseline-2x4"]; cb == 0 || cb >= base {
		t.Fatalf("cbfesc framed %d bytes, the dense baseline %d", cb, base)
	}
}

// TestDistConfigValidation pins the Dist configuration rules.
func TestDistConfigValidation(t *testing.T) {
	base := testConfig(core.Baseline())

	bad := base
	bad.Dist = &DistConfig{}
	if bad.Validate() == nil {
		t.Fatal("nil Dist transport accepted")
	}

	bad = base
	bad.Dist = &DistConfig{Transport: collective.NewMemTransport(8)}
	if bad.Validate() == nil {
		t.Fatal("non-remote Dist transport accepted")
	}

	trs := distTransports(t, 2)

	bad = base
	bad.Dist = &DistConfig{Transport: trs[0]}
	if bad.Validate() == nil {
		t.Fatal("Dist transport world 2 accepted for an 8-rank grid")
	}

	ok := base
	ok.Stages = 1
	ok.DPGroups = 2
	ok.Dist = &DistConfig{Transport: trs[0]}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid single-stage Dist config rejected: %v", err)
	}

	bad = ok
	bad.Engine = EngineReference
	if bad.Validate() == nil {
		t.Fatal("Dist with EngineReference accepted")
	}

}
