package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// The registry is the single definition of what the benchmark measures:
// the workloads, the end-to-end metrics with their regression bounds, and
// the per-layer metrics with — for each — the end-to-end metric it is
// expected to move and where. BENCHMARK.json is this registry rendered in
// the driver's schema (-emit-spec writes it; a test pins the two equal),
// and -describe renders the tables benchmark/README.md carries.

// runSeconds is how long one run measures when the caller does not say.
const runSeconds = 10

// Workload names.
const (
	wlTrainPPCbfesc = "train-pp-cbfesc"
	wlTrainPPDense  = "train-pp-dense"
	wlTrainDPCbfesc = "train-dp-cbfesc"
	wlTrainDPUnix   = "train-dp-unix"
	wlCollective    = "collective-mix"
	wlAutotune      = "autotune-search"
	wlServe         = "serve-mix"
)

// End-to-end metric names. Every workload reports every one of them: an
// operation is a training iteration, a collective round, a plan search or
// an HTTP request, and work is what that operation produces.
const (
	mSetupS   = "setup_s"
	mWorkPerS = "work_per_s"
	mOpMsP50  = "op_ms_p50"
	mOpMsP95  = "op_ms_p95"
)

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Def is the metric's exact definition.
	Def string
	// Exact marks a value that repeats bit for bit for a given seed.
	Exact bool

	// Per-layer only. Moves names the end-to-end metric this one should
	// move, On the workloads where it should, Flat where no change is
	// predicted.
	Moves string
	On    string
	Flat  string
}

var endToEnd = []metricDef{
	{Name: mSetupS, Unit: "s", Better: "lower", Bound: 0.25,
		Def: "fastest of the run's five complete set-ups: construct everything the workload drives and run its warm-up operations"},
	{Name: mWorkPerS, Unit: "1/s", Better: "higher", Bound: 0.25,
		Def: "best build's median over consecutive 50-operation batches of work per second; work is target tokens (DP×micro-batches×micro-batch) on train-*, collective calls on collective-mix, candidates enumerated on autotune-search, requests (all clients) on serve-mix"},
	{Name: mOpMsP50, Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "best build's median wall time of one operation: TrainIteration (rank 0 under unix), one collective round, one autotune.Search, one POST /v1/price round trip"},
	{Name: mOpMsP95, Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "best build's 95th percentile (nearest rank) of the same per-operation wall times; on serve-mix, where one request in ten is a miss, the median of the miss path"},
}

const (
	allTrain = "train-*"
	ppTrain  = "train-pp-*"
	dpTrain  = "train-dp-*"
)

var perLayer = []metricDef{
	// data
	{Name: "data.sample_us_per_iter", Unit: "us", Better: "lower", Moves: mOpMsP50, On: allTrain, Flat: "expected ≈0 share; guards a regression",
		Def: "wall time of the DP×micro-batches Corpus.SampleBatch calls one iteration makes, timed directly"},

	// tensor
	{Name: "tensor.matmul_us", Unit: "us", Better: "lower", Moves: mWorkPerS, On: ppTrain, Flat: "autotune-search, serve-mix",
		Def: "median MatMulInto of a micro-batch×hidden activation by a hidden×hidden weight at the workload's shapes"},
	{Name: "tensor.pool_hit_ratio", Unit: "ratio", Better: "higher", Moves: mOpMsP95, On: allTrain + ", collective-mix", Flat: "autotune-search, serve-mix",
		Def: "tensor.Pool hits ÷ gets over the untraced pass"},
	{Name: "tensor.pool_gets_per_iter", Unit: "count", Better: "lower", Moves: mOpMsP95, On: allTrain, Flat: "autotune-search, serve-mix",
		Def: "tensor.Pool gets per iteration over the untraced pass"},
	{Name: "tensor.codec_encode_us", Unit: "us", Better: "lower", Moves: mOpMsP50, On: wlTrainDPUnix, Flat: "every mem workload",
		Def: "median AppendMatrix of the largest DP-synchronized gradient into a reused buffer"},
	{Name: "tensor.codec_decode_us", Unit: "us", Better: "lower", Moves: mOpMsP50, On: wlTrainDPUnix, Flat: "every mem workload",
		Def: "median DecodeMatrix of that image into a pooled matrix"},

	// compress
	{Name: "compress.compress_ms_per_iter", Unit: "ms", Better: "lower", Moves: mOpMsP50, On: "train-pp-cbfesc, train-dp-*", Flat: wlTrainPPDense,
		Def: "Σ duration of the program's compress spans (all ranks and collective workers) per traced iteration"},
	{Name: "compress.decompress_ms_per_iter", Unit: "ms", Better: "lower", Moves: mOpMsP50, On: "train-pp-cbfesc, train-dp-*", Flat: wlTrainPPDense,
		Def: "Σ duration of the program's decompress spans per traced iteration"},
	{Name: "compress.calls_per_iter", Unit: "count", Better: "lower", Exact: true, Moves: mOpMsP50, On: "train-pp-cbfesc, train-dp-*", Flat: wlTrainPPDense,
		Def: "compress spans per traced iteration"},
	{Name: "compress.powersgd_roundtrip_us", Unit: "us", Better: "lower", Moves: mOpMsP50, On: "train-pp-cbfesc, train-dp-*, collective-mix", Flat: wlTrainPPDense,
		Def: "median CompressWithFeedback (compress + reconstruct + residual) of PowerSGD at the workload's shape and rank"},
	{Name: "compress.topk_roundtrip_us", Unit: "us", Better: "lower", Moves: mOpMsP50, On: wlCollective, Flat: allTrain,
		Def: "median CompressWithFeedbackSparse of TopK 2 % on 256×256"},
	{Name: "compress.ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: mOpMsP50, On: "train-pp-cbfesc, train-dp-*, collective-mix", Flat: wlTrainPPDense,
		Def: "dense bytes ÷ payload wire bytes of the workload's PowerSGD compressor at its shape (0 when the workload compresses nothing)"},

	// collective
	{Name: "collective.pp_wire_bytes_per_iter", Unit: "bytes", Better: "lower", Exact: true, Moves: mOpMsP50, On: ppTrain, Flat: "collective-mix",
		Def: "modelled pipeline-class wire bytes per iteration from the transport's class counters"},
	{Name: "collective.dp_wire_bytes_per_iter", Unit: "bytes", Better: "lower", Exact: true, Moves: mOpMsP50, On: dpTrain + ", collective-mix", Flat: "autotune-search",
		Def: "modelled DP-class wire bytes per iteration (per round on collective-mix)"},
	{Name: "collective.emb_wire_bytes_per_iter", Unit: "bytes", Better: "lower", Exact: true, Moves: mOpMsP50, On: allTrain, Flat: "collective-mix",
		Def: "modelled embedding-class wire bytes per iteration"},
	{Name: "collective.wire_bytes_per_iter", Unit: "bytes", Better: "lower", Exact: true, Moves: mOpMsP50, On: allTrain + ", collective-mix", Flat: "autotune-search, serve-mix",
		Def: "pp + dp + emb modelled wire bytes per iteration; on train-* checked equal to the plan's prediction, on train-dp-unix equal to train-dp-cbfesc's"},
	{Name: "collective.messages_per_iter", Unit: "count", Better: "lower", Exact: true, Moves: mOpMsP50, On: dpTrain + ", collective-mix", Flat: "autotune-search, serve-mix",
		Def: "transport messages per iteration, all classes"},
	{Name: "collective.steps_per_iter", Unit: "count", Better: "lower", Exact: true, Moves: mOpMsP50, On: dpTrain + ", collective-mix", Flat: "autotune-search, serve-mix",
		Def: "synchronized ring steps per iteration, all classes"},
	{Name: "collective.ops_per_iter", Unit: "count", Better: "lower", Exact: true, Moves: mOpMsP50, On: dpTrain + ", collective-mix", Flat: "autotune-search, serve-mix",
		Def: "collective operations issued per iteration (the program's op spans; calls per round on collective-mix)"},
	{Name: "collective.op_ms_per_iter", Unit: "ms", Better: "lower", Moves: mOpMsP50, On: dpTrain, Flat: "autotune-search, serve-mix",
		Def: "Σ issue→finish duration of the program's collective op spans per traced iteration (in-flight ops overlap, so this exceeds wall)"},
	{Name: "collective.exec_ms_per_iter", Unit: "ms", Better: "lower", Moves: mOpMsP50, On: dpTrain, Flat: "autotune-search, serve-mix",
		Def: "Σ self time of the rank workers' exec spans (codec children subtracted) per traced iteration"},
	{Name: "collective.frame_bytes_per_iter", Unit: "bytes", Better: "lower", Exact: true, Moves: mOpMsP50, On: wlTrainDPUnix, Flat: "every mem workload (reads 0)",
		Def: "Σ SocketTransport.FrameBytes over all ranks per iteration: the bytes actually written to the sockets"},
	{Name: "collective.frame_overhead_ratio", Unit: "ratio", Better: "lower", Exact: true, Moves: mOpMsP50, On: wlTrainDPUnix, Flat: "every mem workload (reads 0)",
		Def: "frame bytes ÷ modelled wire bytes"},
	{Name: "collective.allreduce_mem_us", Unit: "us", Better: "lower", Moves: mOpMsP50, On: wlTrainDPCbfesc, Flat: "autotune-search, serve-mix",
		Def: "median dense ring AllReduce of the largest DP-synchronized gradient at the workload's DP width over MemTransport"},
	{Name: "collective.allreduce_unix_us", Unit: "us", Better: "lower", Moves: mOpMsP50, On: wlTrainDPUnix, Flat: "every mem workload",
		Def: "the same all-reduce over a unix SocketTransport mesh, one runtime per rank"},
	{Name: "collective.unix_vs_mem_ratio", Unit: "ratio", Better: "lower", Moves: mOpMsP50, On: wlTrainDPUnix, Flat: "every mem workload",
		Def: "allreduce_unix_us ÷ allreduce_mem_us from the same run"},
	{Name: "collective.dense_us_p50", Unit: "us", Better: "lower", Moves: mOpMsP50, On: wlCollective, Flat: allTrain,
		Def: "median dense AllReduce 128×128 call in the traced rounds"},
	{Name: "collective.powersgd_us_p50", Unit: "us", Better: "lower", Moves: mOpMsP50, On: wlCollective, Flat: allTrain,
		Def: "median PowerSGD-rank-4 AllReduceCompressed 128×128 call"},
	{Name: "collective.sparse_us_p50", Unit: "us", Better: "lower", Moves: mOpMsP50, On: wlCollective, Flat: allTrain,
		Def: "median TopK-2 % AllReduceCompressed 256×256 call (merge-union path)"},
	{Name: "collective.broadcast_us_p50", Unit: "us", Better: "lower", Moves: mOpMsP50, On: wlCollective, Flat: allTrain,
		Def: "median Broadcast 128×128 call"},
	{Name: "collective.sparse_fallback_ratio", Unit: "ratio", Better: "lower", Exact: true, Moves: mOpMsP50, On: wlCollective, Flat: allTrain,
		Def: "sparse all-reduces that crossed the density cap and reduced densely ÷ all sparse all-reduces"},
	{Name: "collective.allocs_per_round", Unit: "count", Better: "lower", Moves: mOpMsP95, On: wlCollective, Flat: allTrain,
		Def: "heap allocations per round over the untraced rounds"},

	// train
	{Name: "train.fwd_ms_per_iter", Unit: "ms", Better: "lower", Moves: mWorkPerS, On: ppTrain, Flat: "autotune-search, serve-mix",
		Def: "Σ forward compute spans over all ranks per traced iteration (busy time, not wall)"},
	{Name: "train.bwd_ms_per_iter", Unit: "ms", Better: "lower", Moves: mWorkPerS, On: ppTrain, Flat: "autotune-search, serve-mix",
		Def: "Σ backward compute spans over all ranks per traced iteration"},
	{Name: "train.opt_ms_per_iter", Unit: "ms", Better: "lower", Moves: mWorkPerS, On: allTrain, Flat: "autotune-search, serve-mix",
		Def: "Σ optimizer-step spans per traced iteration"},
	{Name: "train.pp_send_ms_per_iter", Unit: "ms", Better: "lower", Moves: mWorkPerS, On: ppTrain, Flat: "autotune-search, serve-mix",
		Def: "Σ self time of the inter-stage send spans (codec children subtracted) per traced iteration"},
	{Name: "train.pipeline_ms_per_iter", Unit: "ms", Better: "lower", Moves: mWorkPerS, On: ppTrain, Flat: "autotune-search, serve-mix",
		Def: "the driver's pipeline window (engines start → joined) per traced iteration, on rank 0 under unix"},
	{Name: "train.dp_exposed_ms_per_iter", Unit: "ms", Better: "lower", Moves: mOpMsP50, On: dpTrain, Flat: "little on train-pp-* (backward compute outlasts the sync)",
		Def: "wall time blocked on DP-sync handles after the backward pass per traced iteration"},
	{Name: "train.emb_sync_ms_per_iter", Unit: "ms", Better: "lower", Moves: mOpMsP50, On: allTrain, Flat: "autotune-search, serve-mix",
		Def: "the §6 embedding-synchronization phase per traced iteration"},
	{Name: "train.residual_share", Unit: "ratio", Better: "lower", Moves: mOpMsP50, On: allTrain, Flat: "must stay ≤ 0.10 (checked)",
		Def: "share of the benchmark's root span around TrainIteration not covered by pipeline + dp_exposed + emb_sync + opt"},
	{Name: "train.stage_idle_share", Unit: "ratio", Better: "lower", Moves: mWorkPerS, On: ppTrain, Flat: "autotune-search, serve-mix",
		Def: "1 − Σ top-level rank-track span time ÷ (ranks × pipeline window): the share of the window a rank goroutine records nothing"},
	{Name: "pipeline.bubble_share_model", Unit: "ratio", Better: "lower", Exact: true, Moves: mWorkPerS, On: ppTrain, Flat: "a schedule constant",
		Def: "pipeline.BubbleFraction1F1B(stages, micro-batches)"},
	{Name: "train.allocs_per_iter", Unit: "count", Better: "lower", Moves: mOpMsP95, On: allTrain, Flat: "autotune-search, serve-mix",
		Def: "heap allocations per iteration over the untraced pass"},
	{Name: "train.alloc_kb_per_iter", Unit: "kb", Better: "lower", Moves: mOpMsP95, On: allTrain, Flat: "autotune-search, serve-mix",
		Def: "heap KiB allocated per iteration over the untraced pass"},
	{Name: "train.gc_cycles_per_iter", Unit: "count", Better: "lower", Moves: mOpMsP95, On: allTrain, Flat: "autotune-search, serve-mix",
		Def: "completed GC cycles per iteration over the untraced pass"},
	{Name: "train.heap_peak_mb", Unit: "mb", Better: "lower", Moves: mOpMsP95, On: allTrain, Flat: "autotune-search, serve-mix",
		Def: "largest heap-in-use sampled every 50 iterations of the untraced pass, MiB"},
	{Name: "train.reference_iter_ms", Unit: "ms", Better: "lower", Moves: mSetupS, On: allTrain, Flat: "executor overhead = op_ms_p50 ÷ this",
		Def: "median iteration of the same configuration on EngineReference (serial, no runtime)"},
	{Name: "train.new_ms", Unit: "ms", Better: "lower", Moves: mSetupS, On: allTrain, Flat: "autotune-search, serve-mix",
		Def: "median train.New + Close"},
	{Name: "train.checkpoint_save_ms", Unit: "ms", Better: "lower", Moves: mSetupS, On: allTrain, Flat: "autotune-search, serve-mix",
		Def: "median CheckpointBytes of the warmed trainer"},
	{Name: "train.checkpoint_bytes", Unit: "bytes", Better: "lower", Exact: true, Moves: mSetupS, On: allTrain, Flat: "autotune-search, serve-mix",
		Def: "size of that checkpoint"},
	{Name: "train.final_loss", Unit: "loss", Better: "lower", Exact: true, Moves: "quality", On: allTrain, Flat: "a change that leaves arithmetic alone",
		Def: "mean training loss of iterations 400–499 counted from trainer construction; on train-dp-unix checked equal to train-dp-cbfesc's"},

	// plan
	{Name: "plan.compile_us", Unit: "us", Better: "lower", Moves: mOpMsP50, On: "autotune-search (op_ms_p95 on serve-mix)", Flat: allTrain,
		Def: "median Evaluator.Plan (plan.Compile on the GPT-2.5B grid) of the cbfesc configuration"},
	{Name: "plan.buckets", Unit: "count", Better: "lower", Exact: true, Moves: mOpMsP50, On: wlAutotune, Flat: allTrain,
		Def: "DP-sync buckets, all stages, of that compiled plan"},

	// sim
	{Name: "sim.new_evaluator_ms", Unit: "ms", Better: "lower", Moves: mSetupS, On: "autotune-search, serve-mix", Flat: allTrain,
		Def: "median sim.NewEvaluator on the paper scenario"},
	{Name: "sim.price_us", Unit: "us", Better: "lower", Moves: mWorkPerS, On: "autotune-search (op_ms_p95 on serve-mix, never its p50)", Flat: allTrain,
		Def: "median Evaluator.Price of the cbfesc configuration"},
	{Name: "sim.price_allocs", Unit: "count", Better: "lower", Moves: mWorkPerS, On: wlAutotune, Flat: allTrain,
		Def: "heap allocations per Evaluator.Price"},
	{Name: "sim.price_ns_per_task", Unit: "ns", Better: "lower", Moves: mWorkPerS, On: wlAutotune, Flat: allTrain,
		Def: "price time ÷ simnet.tasks"},
	{Name: "sim.simulate_ms", Unit: "ms", Better: "lower", Moves: mSetupS, On: wlAutotune, Flat: allTrain,
		Def: "median sim.Simulate (graph build + solve + five breakdown re-solves) of the cbfesc scenario"},
	{Name: "simnet.tasks", Unit: "count", Better: "lower", Exact: true, Moves: mWorkPerS, On: wlAutotune, Flat: allTrain,
		Def: "tasks in the scenario's event graph"},
	{Name: "sim.baseline_iter_s", Unit: "s", Better: "lower", Exact: true, Moves: "simulated value", On: wlAutotune, Flat: "a host-time change",
		Def: "simulated GPT-2.5B iteration seconds, baseline configuration"},
	{Name: "sim.cbfesc_iter_s", Unit: "s", Better: "lower", Exact: true, Moves: "simulated value", On: wlAutotune, Flat: "a host-time change",
		Def: "simulated iteration seconds, hand-picked cbfesc configuration"},
	{Name: "sim.winner_iter_s", Unit: "s", Better: "lower", Exact: true, Moves: "simulated value", On: wlAutotune, Flat: "a host-time change",
		Def: "simulated iteration seconds of the search winner"},

	// autotune
	{Name: "autotune.sim_speedup", Unit: "ratio", Better: "higher", Exact: true, Moves: "simulated value", On: wlAutotune, Flat: "a host-time change",
		Def: "sim.baseline_iter_s ÷ sim.winner_iter_s"},
	{Name: "autotune.enumerated", Unit: "count", Better: "lower", Exact: true, Moves: mOpMsP50, On: wlAutotune, Flat: allTrain,
		Def: "candidates in DefaultSpace(4)"},
	{Name: "autotune.priced", Unit: "count", Better: "lower", Exact: true, Moves: mOpMsP50, On: wlAutotune, Flat: allTrain,
		Def: "candidates the search priced"},
	{Name: "autotune.admit_ratio", Unit: "ratio", Better: "lower", Exact: true, Moves: mOpMsP50, On: wlAutotune, Flat: allTrain,
		Def: "admitted ÷ enumerated"},
	{Name: "autotune.search_allocs", Unit: "count", Better: "lower", Moves: mOpMsP50, On: wlAutotune, Flat: allTrain,
		Def: "heap allocations per search"},
	{Name: "autotune.nonprice_share", Unit: "ratio", Better: "lower", Moves: mOpMsP50, On: wlAutotune, Flat: allTrain,
		Def: "share of the benchmark's search span not covered by its spans around the pricer's Price and Plan calls: enumerate, admit, rank"},

	// whatif
	{Name: "whatif.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: mOpMsP50, On: wlServe, Flat: "set by the request mix",
		Def: "engine cache hits ÷ requests over the traced pass"},
	{Name: "whatif.priced", Unit: "count", Better: "lower", Moves: mOpMsP95, On: wlServe, Flat: allTrain,
		Def: "plans the engine priced in the traced pass"},
	{Name: "whatif.coalesced", Unit: "count", Better: "higher", Moves: mOpMsP95, On: wlServe, Flat: allTrain,
		Def: "requests that attached to an in-flight pricing"},
	{Name: "whatif.batches_per_priced", Unit: "ratio", Better: "lower", Moves: mOpMsP95, On: wlServe, Flat: allTrain,
		Def: "batch drains ÷ plans priced (1 = no batching)"},
	{Name: "whatif.evaluators_created", Unit: "count", Better: "lower", Moves: mSetupS, On: wlServe, Flat: allTrain,
		Def: "evaluators the pool built"},
	{Name: "whatif.price_errors", Unit: "count", Better: "lower", Exact: true, Moves: "failed", On: wlServe, Flat: "must be 0",
		Def: "pricings that returned an error"},
	{Name: "whatif.hit_us", Unit: "us", Better: "lower", Moves: mOpMsP50, On: wlServe, Flat: allTrain,
		Def: "median in-process Handle.Price of a cached plan"},
	{Name: "whatif.miss_us", Unit: "us", Better: "lower", Moves: mOpMsP95, On: wlServe, Flat: allTrain,
		Def: "median in-process Handle.Price of a never-seen plan"},
	{Name: "whatif.http_overhead_us", Unit: "us", Better: "lower", Moves: mOpMsP50, On: wlServe, Flat: allTrain,
		Def: "median hot-set HTTP round trip − whatif.hit_us: JSON, net/http and loopback"},
	{Name: "whatif.allocs_per_req", Unit: "count", Better: "lower", Moves: mWorkPerS, On: wlServe, Flat: allTrain,
		Def: "process heap allocations per request, client side included"},

	// obs
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none", On: allTrain, Flat: "end-to-end numbers come from the untraced run",
		Def: "median traced iteration ÷ median untraced iteration, same run"},
	{Name: "obs.spans_per_iter", Unit: "count", Better: "lower", Moves: "none", On: allTrain, Flat: "—",
		Def: "spans the program recorded per traced iteration"},
	{Name: "obs.dropped_spans", Unit: "count", Better: "lower", Exact: true, Moves: "none", On: allTrain, Flat: "must be 0 (checked)",
		Def: "spans the recorder dropped"},
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// registrySpec renders the registry in the driver's schema.
func registrySpec() benchSpec {
	s := benchSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads() {
		s.Workloads = append(s.Workloads, specWorkload{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		s.EndToEnd = append(s.EndToEnd, specMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		s.PerLayer = append(s.PerLayer, specLayer{m.Name, m.Unit, m.Better})
	}
	return s
}

func writeSpec(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(registrySpec())
}

// loadSpec reads BENCHMARK.json from the working directory or, when the
// benchmark runs from its own directory, from its parent.
func loadSpec() (benchSpec, error) {
	var s benchSpec
	var raw []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if raw, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate checks a spec against the limits the driver states.
func (s benchSpec) validate() error {
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s name %q is not a valid name", kind, n)
		}
		if seen[n] {
			return fmt.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		return nil
	}
	metric := func(kind, n, unit, better string) error {
		if err := name(kind, n); err != nil {
			return err
		}
		if !unitRE.MatchString(unit) {
			return fmt.Errorf("%s %q: unit %q is not a valid unit", kind, n, unit)
		}
		if better != "lower" && better != "higher" {
			return fmt.Errorf("%s %q: better is %q", kind, n, better)
		}
		return nil
	}
	switch {
	case len(s.Command) < 1 || len(s.Command) > 32:
		return fmt.Errorf("command has %d strings", len(s.Command))
	case len(s.Paths) < 1 || len(s.Paths) > 16:
		return fmt.Errorf("paths has %d entries", len(s.Paths))
	case s.RunSeconds < 1 || s.RunSeconds > 60:
		return fmt.Errorf("run_seconds %d outside [1, 60]", s.RunSeconds)
	case len(s.Workloads) < 2 || len(s.Workloads) > 8:
		return fmt.Errorf("%d workloads", len(s.Workloads))
	case len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16:
		return fmt.Errorf("%d end-to-end metrics", len(s.EndToEnd))
	case len(s.PerLayer) < 1 || len(s.PerLayer) > 128:
		return fmt.Errorf("%d per-layer metrics", len(s.PerLayer))
	}
	for _, w := range s.Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len([]rune(w.Why)) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := metric("end-to-end metric", m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == mSetupS && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		return fmt.Errorf("no %s metric with unit s and better lower", mSetupS)
	}
	for _, m := range s.PerLayer {
		if err := metric("per-layer metric", m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	return nil
}

// describe prints the registry as the markdown tables the README carries.
func describe(w io.Writer) {
	fmt.Fprintln(w, "### Workloads")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| workload | why it exists |")
	fmt.Fprintln(w, "|---|---|")
	for _, wl := range workloads() {
		fmt.Fprintf(w, "| `%s` | %s |\n", wl.name, wl.why)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "### End-to-end metrics")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| metric | unit | better | bound | definition |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s | %s | %.0f %% | %s |\n", m.Name, m.Unit, m.Better, 100*m.Bound, m.Def)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "### Per-layer metrics and what each should move")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| metric | unit | definition | should move | on | no change expected on |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, m := range perLayer {
		exact := ""
		if m.Exact {
			exact = " (exact)"
		}
		fmt.Fprintf(w, "| `%s` | %s%s | %s | `%s` | %s | %s |\n", m.Name, m.Unit, exact, m.Def, m.Moves, m.On, m.Flat)
	}
}
