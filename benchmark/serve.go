package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/whatif"
)

// serve-mix drives the what-if service over a real loopback listener with
// closed-loop keep-alive clients: each sends its next POST /v1/price only
// when the previous reply has been read. Nine requests in ten name one of
// 24 hot plans (the cache-hit + HTTP path, which sets the median); one in
// ten names a plan never seen before (compile + price through the
// evaluator pool, which sets the tail). The service runs with the defaults
// cmd/optcc-serve ships: 64Ki-entry cache, GOMAXPROCS evaluators, no
// batching window.

// streamPerSecond sizes a client's pre-generated request stream: more
// requests per second of window than one closed-loop client can complete.
const streamPerSecond = 60000

// serveWarmRounds is how many times each client requests the whole hot set
// before timing starts.
const serveWarmRounds = 5

// serveState is a built serve-mix workload.
type serveState struct {
	eng     *whatif.Engine
	hs      *http.Server
	served  chan error
	url     string
	hot     []hotPlan
	clients []*http.Client
}

func newServeState(rec *obs.Recorder) (*serveState, error) {
	st := &serveState{
		eng:    whatif.NewEngine(whatif.Options{Recorder: rec}),
		hot:    genHotSet(),
		served: make(chan error, 1),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.url = "http://" + ln.Addr().String() + "/v1/price"
	st.hs = &http.Server{Handler: whatif.NewServer(st.eng, whatif.ServerOptions{})}
	go func() { st.served <- st.hs.Serve(ln) }()
	for c := 0; c < loadClients(); c++ {
		st.clients = append(st.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	// Warm-up: every client opens its connection and requests the hot set
	// serveWarmRounds times, which also fills the cache.
	for _, hc := range st.clients {
		for i := 0; i < serveWarmRounds*len(st.hot); i++ {
			if err := post(hc, st.url, st.hot[i%len(st.hot)].body, nil); err != nil {
				st.close()
				return nil, fmt.Errorf("warm-up request: %w", err)
			}
		}
	}
	return st, nil
}

// close shuts the listener and the connections down and waits for the
// serving goroutine to return.
func (st *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, hc := range st.clients {
		hc.CloseIdleConnections()
	}
	if err := st.hs.Shutdown(ctx); err != nil {
		st.hs.Close()
	}
	<-st.served
}

// post sends one price request and reads the whole reply; into, when
// non-nil, receives the decoded response.
func post(hc *http.Client, url string, body []byte, into *whatif.PriceResponse) error {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if into != nil {
		return json.NewDecoder(resp.Body).Decode(into)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// drive runs every client's closed loop for the window, each continuing
// its stream where it stopped, and returns each client's per-request wall
// times and the failures.
// perReq, when non-nil, receives every request (the traced pass's spans).
func (st *serveState) drive(streams []*requestStream, window time.Duration,
	perReq func(client int, hit bool, start time.Time, d time.Duration)) ([][]time.Duration, int64) {
	durs := make([][]time.Duration, len(st.clients))
	failed := make([]int64, len(st.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for c, hc := range st.clients {
		wg.Add(1)
		go func(c int, hc *http.Client) {
			defer wg.Done()
			rs := streams[c]
			out := make([]time.Duration, 0, len(rs.order))
			for ; rs.next < len(rs.order); rs.next++ {
				i := rs.next
				t0 := time.Now()
				if t0.Sub(start) >= window {
					break
				}
				err := post(hc, st.url, rs.body(i, st.hot), nil)
				d := time.Since(t0)
				out = append(out, d)
				if err != nil {
					failed[c]++
				}
				if perReq != nil {
					perReq(c, rs.order[i] >= 0, t0, d)
				}
			}
			durs[c] = out
		}(c, hc)
	}
	wg.Wait()
	var f int64
	for _, n := range failed {
		f += n
	}
	return durs, f
}

func genStreams(seed int64, clients int, seconds float64) []*requestStream {
	n := int(seconds*streamPerSecond) + 1
	streams := make([]*requestStream, clients)
	for c := range streams {
		streams[c] = genRequestStream(seed, c, clients, n)
	}
	return streams
}

// checkHotSet requires every hot plan's served estimate to equal, bit for
// bit, what a private evaluator prices for the same plan.
func (st *serveState) checkHotSet(res *passResult) error {
	ev, err := sim.NewEvaluator(paperScenario())
	if err != nil {
		return err
	}
	bad := 0
	var detail string
	for _, h := range st.hot {
		want, err := ev.Price(whatif.Presets[h.preset](), h.bucket)
		if err != nil {
			return err
		}
		var got whatif.PriceResponse
		if err := post(st.clients[0], st.url, h.body, &got); err != nil {
			return err
		}
		if !reflect.DeepEqual(got.Estimate, want) {
			bad++
			detail = fmt.Sprintf("%s/%d: served %+v, direct %+v", h.preset, h.bucket, got.Estimate, want)
		}
	}
	res.expect("hot-set estimates over HTTP equal a direct Evaluator.Price", bad == 0, "%d of %d differ, e.g. %s", bad, len(st.hot), detail)
	return nil
}

func serveWorkload() workload {
	return workload{
		name:  wlServe,
		why:   "what-if service on loopback: 90% requests hit 24 hot plans (p50 = cache hit + HTTP), 10% never-seen plans (p95 = compile + price via the evaluator pool); one stream, two layers",
		run:   serveRun,
		trace: serveTrace,
	}
}

func serveRun(env runEnv) (*passResult, error) {
	// One stream per client for the whole run; each build's clients continue
	// it where the previous build's stopped.
	streams := genStreams(env.seed, loadClients(), env.seconds)
	res := newPassResult()
	var series [][]time.Duration
	setups, err := overBuilds(env.window(),
		func() (*serveState, error) { return newServeState(nil) },
		func(st *serveState, window time.Duration) error {
			durs, failed := st.drive(streams, window, nil)
			series = append(series, durs...)
			for _, d := range durs {
				res.attempted += int64(len(d))
			}
			res.failed += failed
			errs := st.eng.Stats().PriceErrors
			res.expect("the engine priced without error", errs == 0, "%d price errors", errs)
			return st.checkHotSet(res)
		},
		(*serveState).close)
	if err != nil {
		return nil, err
	}
	res.endToEndMetrics(timed{series: series, clients: loadClients(), setups: setups, workPerOp: 1})
	return res, nil
}

func serveTrace(env runEnv) (*passResult, error) {
	res := newPassResult()
	// One span per batch drain: every miss drains at least once.
	rec := obs.NewRecorder([]string{"whatif"}, 1<<17)
	st, err := newServeState(rec)
	if err != nil {
		return nil, err
	}
	defer st.close()
	clients := len(st.clients)

	// Untraced stretch: allocations per request.
	streams := genStreams(env.seed, clients, env.seconds)
	mem := startMemProbe()
	plain, failed := st.drive(streams, env.share(untracedShare), nil)
	alloc := mem.since()
	var nPlain int
	for _, d := range plain {
		nPlain += len(d)
	}
	res.attempted += int64(nPlain)
	res.failed += failed
	res.set("whatif.allocs_per_req", float64(alloc.mallocs)/float64(nPlain), nPlain)

	// Traced stretch: the benchmark's span around every round trip, the
	// engine's own span around every batch drain, and its counters.
	s0 := st.eng.Stats()
	epoch := time.Now()
	tracks := make([]traceTrack, clients)
	hitDurs := make([][]time.Duration, clients)
	for c := range tracks {
		tracks[c].name = fmt.Sprintf("bench/client%d", c)
	}
	traced, failed := st.drive(streams, env.share(tracedShare),
		func(c int, hit bool, start time.Time, d time.Duration) {
			name := "miss"
			if hit {
				name = "hit"
				hitDurs[c] = append(hitDurs[c], d)
			}
			tracks[c].spans = append(tracks[c].spans, spanAt(epoch, name, start, d))
		})
	s1 := st.eng.Stats()
	for _, d := range traced {
		res.attempted += int64(len(d))
	}
	res.failed += failed
	reqs := s1.Requests - s0.Requests
	priced := s1.Priced - s0.Priced
	res.set("whatif.cache_hit_ratio", float64(s1.CacheHits-s0.CacheHits)/float64(reqs), int(reqs))
	res.set("whatif.priced", float64(priced), int(reqs))
	res.set("whatif.coalesced", float64(s1.Coalesced-s0.Coalesced), int(reqs))
	if priced > 0 {
		res.set("whatif.batches_per_priced", float64(s1.Batches-s0.Batches)/float64(priced), int(priced))
	}
	res.set("whatif.evaluators_created", float64(s1.EvaluatorsCreated), 1)
	res.set("whatif.price_errors", float64(s1.PriceErrors), 1)
	res.expect("the engine priced without error", s1.PriceErrors == 0, "%d price errors", s1.PriceErrors)
	res.expect("the engine's recorder dropped no span", rec.Dropped() == 0, "%d spans dropped", rec.Dropped())
	res.tracks = append(tracks, recorderTraceTracks(rec, 0)...)

	// Probes: the engine without HTTP, on the server's own scenario state.
	h, err := st.eng.Open(paperScenario())
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	hotCfg, hotBucket := whatif.Presets[st.hot[0].preset](), st.hot[0].bucket
	if _, cached, err := h.Price(ctx, hotCfg, hotBucket); err != nil || !cached {
		return nil, errors.Join(err, fmt.Errorf("hot plan not cached on the server's scenario (cached=%v)", cached))
	}
	hitUs := timeCalls(probeWarm, probeCalls, func() { h.Price(ctx, hotCfg, hotBucket) })
	res.set("whatif.hit_us", hitUs, probeCalls)
	missCfg, fresh := whatif.Presets["cbfesc"](), int64(1)<<40
	res.set("whatif.miss_us", timeCalls(probeWarm, probeCalls, func() {
		fresh += 4096
		h.Price(ctx, missCfg, fresh)
	}), probeCalls)
	var hits []time.Duration
	for _, d := range hitDurs {
		hits = append(hits, d...)
	}
	res.set("whatif.http_overhead_us", median(micros(hits))-hitUs, len(hits))

	ev, err := sim.NewEvaluator(paperScenario())
	if err != nil {
		return nil, err
	}
	pricingProbes(res, ev)
	if err := st.checkHotSet(res); err != nil {
		return nil, err
	}
	return res, nil
}
