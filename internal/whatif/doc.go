// Package whatif is the high-QPS scenario-evaluation engine behind the
// what-if service (cmd/optcc-serve): a concurrency-safe front end over
// the frozen-sequence sim.Evaluator that answers "what would this
// placement cost?" queries at tens of thousands per second.
//
// A sim.Evaluator prices one candidate in ~120 µs but is strictly
// single-goroutine (it mutates its frozen sequence in place). The
// engine makes that primitive serveable with three layers:
//
//   - Evaluator pool. Each frozen scenario (grid + model shape + comm
//     constants — everything but the Optimus-CC config and the bucket
//     budget) owns a bounded pool of Evaluators. Checkout is one channel
//     receive, checkin one send; evaluators are built lazily up to
//     MaxEvaluators (default GOMAXPROCS), so the pool saturates every
//     core without ever sharing an Evaluator between goroutines.
//
//   - Plan-keyed LRU cache. Results are cached under a canonical key
//     covering every core.Config field plus the bucket budget
//     (autotune.Candidate.Key-style, but collision-free over the full
//     config space) prefixed by the scenario's identity. The cache-hit
//     path is allocation-free: the key renders into a pooled buffer and
//     the sharded LRU looks it up without materializing a string.
//
//   - Singleflight. Concurrent identical queries collapse onto one
//     in-flight pricing (the rest attach as waiters). The leader checks
//     out an evaluator, prices its one query, fills the cache and
//     releases the waiters; distinct misses price concurrently on
//     distinct evaluators, up to the pool bound.
//
// Every path — cached, uncached, coalesced — returns estimates
// bit-identical to a direct sim.Evaluator.Price call on a private
// evaluator; the engine tests pin this under -race. Counters (requests,
// cache hits/misses, coalesced and priced queries) live in an
// obs.Registry, and an optional obs.Recorder captures one span per
// pricing (PhasePrice, Bytes = 1).
//
// Server wraps the engine in the std-lib net/http JSON API that
// cmd/optcc-serve exposes: POST /v1/price, POST /v1/autotune (the
// internal/autotune search over a pooled evaluator), GET /metrics.
package whatif
