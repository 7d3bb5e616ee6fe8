package whatif

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// DefaultCacheEntries is the cache capacity for Options.CacheEntries 0.
const DefaultCacheEntries = 1 << 16

// Options tunes the engine.
type Options struct {
	// CacheEntries bounds the plan-keyed LRU (0 = DefaultCacheEntries;
	// negative disables result caching entirely).
	CacheEntries int
	// MaxEvaluators bounds each frozen scenario's evaluator pool — and
	// therefore the number of concurrent pricings per scenario
	// (0 = GOMAXPROCS).
	MaxEvaluators int
	// Registry receives the engine's counters (nil = a private registry;
	// reachable either way via Engine.Registry).
	Registry *obs.Registry
	// Recorder, when non-nil with at least one track, records one span
	// per pricing on track 0: PhasePrice, Bytes = 1.
	Recorder *obs.Recorder
}

// Engine is the concurrency-safe scenario-evaluation engine: a registry
// of frozen scenarios, each with a bounded sim.Evaluator pool, behind a
// shared plan-keyed LRU with singleflight collapse.
// All methods are safe for concurrent use; every returned Estimate is
// bit-identical to a direct sim.Evaluator.Price on a private evaluator.
type Engine struct {
	opts  Options
	cache *cache
	reg   *obs.Registry
	rec   *obs.Recorder

	mu        sync.Mutex
	scenarios map[string]*scenarioState
	nextID    int

	reqs, hits, misses, coalesced, priced *obs.Counter
	autotunes, evCreated, priceErrors     *obs.Counter
}

// NewEngine builds an engine. The zero Options value gives the serving
// defaults: 64Ki-entry cache, GOMAXPROCS evaluators per scenario.
func NewEngine(opts Options) *Engine {
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{opts: opts, reg: reg, scenarios: make(map[string]*scenarioState)}
	if opts.CacheEntries >= 0 {
		n := opts.CacheEntries
		if n == 0 {
			n = DefaultCacheEntries
		}
		e.cache = newCache(n)
	}
	if opts.Recorder != nil && opts.Recorder.Tracks() > 0 {
		e.rec = opts.Recorder
	}
	e.reqs = reg.Counter("whatif.requests")
	e.hits = reg.Counter("whatif.cache_hits")
	e.misses = reg.Counter("whatif.cache_misses")
	e.coalesced = reg.Counter("whatif.coalesced")
	e.priced = reg.Counter("whatif.priced")
	e.autotunes = reg.Counter("whatif.autotunes")
	e.evCreated = reg.Counter("whatif.evaluators_created")
	e.priceErrors = reg.Counter("whatif.price_errors")
	return e
}

// Registry returns the engine's metrics registry (for /metrics export).
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Stats is a point-in-time snapshot of the engine counters. Batches
// counts evaluator checkouts on the price path; each prices exactly one
// query, so it always equals Priced.
type Stats struct {
	Requests, CacheHits, CacheMisses, Coalesced int64
	Batches, Priced                             int64
	Autotunes, EvaluatorsCreated, PriceErrors   int64
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Requests:          e.reqs.Load(),
		CacheHits:         e.hits.Load(),
		CacheMisses:       e.misses.Load(),
		Coalesced:         e.coalesced.Load(),
		Batches:           e.priced.Load(),
		Priced:            e.priced.Load(),
		Autotunes:         e.autotunes.Load(),
		EvaluatorsCreated: e.evCreated.Load(),
		PriceErrors:       e.priceErrors.Load(),
	}
}

// CacheLen reports the number of cached estimates (0 when caching is
// disabled).
func (e *Engine) CacheLen() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.len()
}

// scenarioState is one frozen scenario's serving state: the evaluator
// pool plus the singleflight table.
type scenarioState struct {
	eng  *Engine
	id   int // cache-key prefix, unique per scenario
	base sim.Scenario

	max     int64 // pool bound == max concurrent pricings
	created atomic.Int64
	pool    chan *sim.Evaluator

	mu      sync.Mutex
	pending map[string]*call // in-flight queries by plan key
}

// call is one in-flight pricing: its result plus the completion channel
// its waiters block on.
type call struct {
	done chan struct{}
	est  sim.Estimate
	err  error
}

func (c *call) wait(ctx context.Context) (sim.Estimate, error) {
	select {
	case <-c.done:
		return c.est, c.err
	case <-ctx.Done():
		return sim.Estimate{}, ctx.Err()
	}
}

// Handle is a registered frozen scenario — the hot-path entry point.
// Handles are cheap values; hold one per scenario and share it freely
// across goroutines.
type Handle struct {
	st *scenarioState
}

// Open registers (or finds) the frozen scenario and returns its handle.
// The scenario's Cfg and BucketBytes are templates only — every query
// supplies its own — so two scenarios differing only there share one
// state. The first evaluator is built eagerly: an unpriceable scenario
// fails here, never on the serving path.
func (e *Engine) Open(sc sim.Scenario) (*Handle, error) {
	base := sc
	base.Cfg = core.Baseline()
	base.BucketBytes = 0
	key := scenarioKey(base)
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.scenarios[key]; ok {
		return &Handle{st: st}, nil
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	ev, err := sim.NewEvaluator(base)
	if err != nil {
		return nil, err
	}
	max := e.opts.MaxEvaluators
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}
	st := &scenarioState{
		eng:     e,
		id:      e.nextID,
		base:    base,
		max:     int64(max),
		pool:    make(chan *sim.Evaluator, max),
		pending: make(map[string]*call),
	}
	e.nextID++
	st.created.Store(1)
	e.evCreated.Add(1)
	st.pool <- ev
	e.scenarios[key] = st
	return &Handle{st: st}, nil
}

// Scenario returns the handle's frozen base scenario.
func (h *Handle) Scenario() sim.Scenario { return h.st.base }

// keyBufPool recycles plan-key render buffers so the cache-hit path is
// allocation-free.
var keyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 128); return &b }}

// Price evaluates one configuration against the handle's scenario,
// returning the estimate and whether it was served from the cache. The
// result is bit-identical to sim.Evaluator.Price(cfg, bucketBytes) on
// an evaluator built from the same scenario. ctx bounds waiting (on a
// coalesced in-flight pricing or a saturated pool), not the ~120 µs
// pricing itself.
func (h *Handle) Price(ctx context.Context, cfg core.Config, bucketBytes int64) (sim.Estimate, bool, error) {
	st := h.st
	e := st.eng
	e.reqs.Add(1)
	bp := keyBufPool.Get().(*[]byte)
	buf := strconv.AppendInt((*bp)[:0], int64(st.id), 10)
	buf = append(buf, '#')
	buf = appendPlanKey(buf, cfg, bucketBytes)
	if e.cache != nil {
		if est, ok := e.cache.get(buf); ok {
			*bp = buf
			keyBufPool.Put(bp)
			e.hits.Add(1)
			return est, true, nil
		}
	}
	e.misses.Add(1)
	est, err := st.price(ctx, buf, cfg, bucketBytes)
	*bp = buf
	keyBufPool.Put(bp)
	return est, false, err
}

// price is the miss path: singleflight-collapse onto an in-flight call
// for the same key, or lead a new call — check out an evaluator, price
// the query, fill the cache, then release the waiters. The cache is
// re-checked under the lock, so a key is priced at most once even when a
// request misses the cache just before the leader fills it.
func (st *scenarioState) price(ctx context.Context, key []byte, cfg core.Config, bucketBytes int64) (sim.Estimate, error) {
	e := st.eng
	st.mu.Lock()
	if c, ok := st.pending[string(key)]; ok {
		st.mu.Unlock()
		e.coalesced.Add(1)
		return c.wait(ctx)
	}
	if e.cache != nil {
		if est, ok := e.cache.get(key); ok {
			st.mu.Unlock()
			e.coalesced.Add(1)
			return est, nil
		}
	}
	k := string(key)
	c := &call{done: make(chan struct{})}
	st.pending[k] = c
	st.mu.Unlock()

	if ev, err := st.checkout(); err != nil {
		c.err = err
	} else {
		start := e.rec.Now()
		c.est, c.err = ev.Price(cfg, bucketBytes)
		e.rec.Record(0, obs.PhasePrice, obs.LinkNone, start, 1, -1, -1, -1)
		st.pool <- ev
		e.priced.Add(1)
	}
	if c.err != nil {
		e.priceErrors.Add(1)
	} else if e.cache != nil {
		e.cache.put(k, c.est)
	}
	st.mu.Lock()
	delete(st.pending, k)
	st.mu.Unlock()
	close(c.done)
	return c.est, c.err
}

// checkout acquires an evaluator: pooled if one is free, freshly built
// while under the bound, else it blocks for the next checkin. No ctx:
// the leader prices for every waiter coalesced onto its call, and
// evaluator turnaround is microseconds, so a bounded block beats failing
// someone else's request with this caller's deadline.
func (st *scenarioState) checkout() (*sim.Evaluator, error) {
	select {
	case ev := <-st.pool:
		return ev, nil
	default:
	}
	if st.created.Add(1) <= st.max {
		ev, err := sim.NewEvaluator(st.base)
		if err != nil {
			st.created.Add(-1)
			return nil, err
		}
		st.eng.evCreated.Add(1)
		return ev, nil
	}
	st.created.Add(-1)
	return <-st.pool, nil
}

// Autotune runs the plan-space search against this scenario on a
// checked-out evaluator — the /v1/autotune backend. Concurrent searches
// draw distinct evaluators from the same pool the price path uses.
func (h *Handle) Autotune(sp autotune.Space, qm autotune.QualityModel, opts autotune.Options) (*autotune.Result, error) {
	st := h.st
	ev, err := st.checkout()
	if err != nil {
		return nil, err
	}
	defer func() { st.pool <- ev }()
	st.eng.autotunes.Add(1)
	return autotune.Search(ev, sp, qm, opts)
}
