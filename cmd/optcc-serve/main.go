// Command optcc-serve runs the what-if service: a std-lib HTTP JSON API
// over internal/whatif's pooled-evaluator engine, answering placement
// what-ifs at high QPS with plan-keyed caching and request coalescing.
//
//	POST /v1/price     {"grid":{"model":"2.5b","tp":8,"dp":4,"pp":4},
//	                    "config":{"preset":"cbfesc"},"bucket_bytes":4194304}
//	POST /v1/autotune  {"grid":{"model":"2.5b"},"budget":0.10,"seed":1}
//	GET  /metrics      engine counters (text; ?format=json for JSON)
//	GET  /healthz      liveness
//
// Served estimates are bit-identical to optcc-sim: the same calibrated
// efficiency, the same scenario defaults, the same evaluator — CI diffs
// a served /v1/price estimate against optcc-sim -price output and a
// served /v1/autotune table against optcc-sim -autotune, byte for byte.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/whatif"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheEntries := flag.Int("cache", whatif.DefaultCacheEntries, "plan-keyed LRU capacity in entries (negative disables caching)")
	evaluators := flag.Int("evaluators", 0, "max evaluators per scenario (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request /v1/price timeout")
	tuneTimeout := flag.Duration("autotune-timeout", 120*time.Second, "per-request /v1/autotune timeout")
	spanCapacity := flag.Int("span-capacity", 0, "record one span per pricing into a ring of this capacity, dumped as a summary on shutdown (0 = off)")
	flag.Parse()

	eff, err := experiments.CalibratedEfficiency()
	if err != nil {
		fatalf("calibration: %v", err)
	}

	var rec *obs.Recorder
	if *spanCapacity > 0 {
		rec = obs.NewRecorder([]string{"whatif"}, *spanCapacity)
	}
	eng := whatif.NewEngine(whatif.Options{
		CacheEntries:  *cacheEntries,
		MaxEvaluators: *evaluators,
		Recorder:      rec,
	})
	srv := whatif.NewServer(eng, whatif.ServerOptions{
		Efficiency:      eff,
		PriceTimeout:    *timeout,
		AutotuneTimeout: *tuneTimeout,
	})

	hs := &http.Server{Addr: *addr, Handler: srv}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("optcc-serve: listening on %s (efficiency %.4f)\n", *addr, eff)
		errc <- hs.ListenAndServe()
	}()
	select {
	case err := <-errc:
		fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	fmt.Println("optcc-serve: shutting down")
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "optcc-serve: shutdown: %v\n", err)
	}

	fmt.Println("optcc-serve: final metrics")
	eng.Registry().WriteText(os.Stdout)
	if rec != nil {
		fmt.Printf("optcc-serve: recorded %d pricing spans (%d dropped)\n", rec.Len(0), rec.Dropped())
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "optcc-serve: "+format+"\n", args...)
	os.Exit(1)
}
