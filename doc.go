// Package repro is a pure-Go reproduction of "Optimus-CC: Efficient Large
// NLP Model Training with 3D Parallelism Aware Communication Compression"
// (ASPLOS 2023).
//
// The repository contains two complementary substrates — a real training
// stack for a scaled stand-in language model (internal/tensor, model,
// data, train) that reproduces every model-quality result, and a
// calibrated discrete-event cluster simulator (internal/cluster, simnet,
// pipeline, sim) that reproduces every timing result — plus the Optimus-CC
// technique layer itself (internal/core, compress — with a name→factory
// compressor registry), the compiled communication/compression plan
// (internal/plan: plan.Compile turns a core.Config + grid into the one
// immutable artifact of per-edge §5.2 actions, per-stage §7 DP-sync
// actions, and the §6 embedding strategy that trainer, simulator, and
// experiments all consume), the rank-based collective-communication
// runtime (internal/collective) that executes and accounts both the ring
// all-reduces and the point-to-point inter-stage transfers
// (Send/Recv/SendCompressed) the cost models only predict, and an
// experiment harness (internal/experiments) that regenerates each table
// and figure.
//
// Training runs on an executable 1F1B pipeline on every grid, single-stage
// included: internal/train drives internal/pipeline's schedule with one
// goroutine per (dp, stage) rank, shipping forward activations and
// compressed backward activation-gradients over the transport —
// bit-identical to the serial reference engine, with executed pp-class
// traffic equal to sim.PredictInterStage's fwd+bwd model exactly.
// Data-parallel synchronization is overlapped with the backward pass:
// the plan compiles a byte-budgeted bucket schedule, each bucket is
// issued as one asynchronous collective — one ring over its dense
// gradients laid end to end, one all-gather of its compressed gradients'
// payloads (*Pending handles, per-rank op queues, deterministic in-flight
// execution) — the moment the stage's gradients are final (or, under
// blocking sync, at the join), and the iteration waits on every handle
// before the optimizer step — still bit-identical, with executed
// per-bucket wire volume equal to sim.PredictDPBucketBytes exactly,
// messages and steps per bucket rather than per gradient, and the exposed
// tail read off the simulator's solved iteration graph by
// sim.PredictDPOverlap.
// Checkpoints (v2) persist the full resume state: weights, optimizer
// momentum, iteration/sampling position, and every error-feedback
// residual and PowerSGD warm-start factor.
//
// The compute under all of it is three matmul kernels (internal/tensor:
// MatMulInto, MatMulATInto, MatMulBTInto) bound by one per-output-element
// contract — terms added in ascending k from +0, each product rounded on
// its own, the axpy forms skipping a zero a operand — which lets them
// block for registers and, on amd64 with AVX, work on four output
// elements per instruction while staying bit-identical to the reference
// triple loops kept in the tests. internal/model's layers compute each
// micro-batch out of a free list their pipeline stage owns (one goroutine
// drives a stage, so no lock): only the matrices that leave a stage are
// allocated, and a matrix handed to a stage is only ever borrowed.
//
// TopK/RandomK payloads are sparse end to end: internal/tensor's COO
// Sparse type and kernels (gather, scatter-add, two-pointer merge-union)
// carry compress → reduce → decompress without materializing a dense
// image — error feedback updates only selected coordinates, the
// collective reduces by density-capped merge-union (bit-identical dense
// fallback), and the simulator prices sparse codecs by nnz.
//
// The executed run is observable end to end via internal/obs: a
// per-rank fixed-capacity span recorder (lock-free, 0 allocs/op, nil =
// disabled) instruments the 1F1B executor, the collective runtime, and
// the compression codecs; an atomic counter registry snapshots named
// metrics; and one Chrome trace-event encoder serves both the
// simulator's predicted traces (pid 1) and the trainer's executed
// traces (pid 2) so merged files compare side by side in Perfetto.
// train.ReconcileTrace cross-checks the trace against the transport's
// counters at tolerance zero and against the simulator's plan-derived
// volume predictions byte-for-byte (optcc-train -trace/-reconcile,
// optcc-sim -trace, optcc-gate -validate-trace).
//
// The transport under the collective runtime is pluggable: the default
// in-process MemTransport hands tensors over channels zero-copy, while
// collective.SocketTransport ships every message as a length-prefixed
// binary frame (internal/collective/wire.go) over TCP or unix sockets
// with identical per-class accounting — a remote run's Stats are
// bit-equal to the in-memory oracle's, with the actual framed volume
// tallied separately. A frame carries a list of payload parts, each in
// its compact exact form — a dense image, sparse index/value pairs, or
// a PowerSGD factor pair the receiver multiplies back out with the
// sender's own kernel, hence to the same bits — so a compressed run
// frames fewer bytes than a dense one in the ratio the model predicts.
// train.Config.Dist switches the trainer into SPMD mode (every process
// builds the full model for RNG lockstep but executes only its local
// rank), collective.Coordinator/JoinCoordinator provide the rendezvous,
// and cmd/optcc-launch spawns one optcc-train -rank process per
// (dp, stage) rank — final weights and losses bit-identical to the
// single-process run, pinned by the cross-transport oracle
// (internal/train/dist_test.go) and CI's multiproc job.
//
// The simulator has one path. sim.BuildGraph lays out an iteration's
// tasks with their kind, stage and micro-batch; one price function turns
// the plan's durations into task costs; simnet.Sequence is the one loop
// that resolves start and finish times. Simulate, Timeline and the
// Chrome trace solve the scenario's own frozen graph, sim.Evaluator
// re-prices one frozen skeleton per grid, and the two agree bit for bit.
//
// The plan space is searchable: internal/autotune enumerates candidate
// plans (per-stage compressed backpropagation on/off with family and
// rank, DP-sync family/rank/prefix depth, §6 embedding strategy, bucket
// budget), rejects those exceeding a quality-loss budget fitted from
// the repo's ablation runs, and prices the rest with sim.Evaluator —
// allocation-light repricing on a frozen event sequence — exhaustively
// for small spaces and by seeded anneal for large ones, always
// deterministically (same seed, same ranked table). optcc-sim -autotune
// prints the ranked table; optcc-train -autotune tunes, trains the
// winner, and verifies executed wire volumes equal the autotuner's
// prediction at tolerance 0.
//
// The evaluator is also servable at high QPS: internal/whatif pools
// sim.Evaluators per frozen scenario (single-goroutine each; checked
// out concurrently), caches results in a sharded plan-keyed LRU whose
// hit path is 0 allocs/op, and collapses concurrent identical misses
// onto one pricing (singleflight). cmd/optcc-serve fronts it with
// a std-lib HTTP API (POST /v1/price, POST /v1/autotune, GET /metrics)
// whose served estimates are bit-identical (tolerance 0) to direct
// sim.Evaluator.Price calls and whose autotune tables are
// byte-identical to optcc-sim -autotune stdout — pinned by CI's
// serve-smoke job diffing the live service against optcc-sim -price.
//
// Performance is measured by one system, the benchmark/ module: seven
// named workloads over the whole stack, four end-to-end metrics with
// regression bounds, and a traced pass attributing them to the layers
// (bash benchmark/run.sh; go run -C benchmark . -describe).
//
// See README.md for a guided tour (quickstart, package map, and the
// pooled zero-allocation compression API) and CHANGES.md for the per-PR
// change log. The root-level benchmarks (bench_test.go) regenerate each
// artifact:
//
//	go test -bench=Fig3 -benchtime=1x .
//	go test -bench=. -benchmem ./...
package repro
