package main

import (
	"time"

	"repro/internal/collective"
	"repro/internal/compress"
	"repro/internal/tensor"
)

// collective-mix drives the ring schedules four different ways on one
// 8-rank DP group over MemTransport, with no trainer around them. One
// operation is a round: each kind of call repeated so that no kind takes
// more than 40 % of the round (see mixKinds), which keeps a gain for one
// kind that costs another visible in the round time.
const (
	mixRanks      = 8
	mixSmall      = 128 // dense, PowerSGD and broadcast operate on 128×128
	mixLarge      = 256 // the sparse all-reduce operates on 256×256
	mixPowerRank  = 4
	mixTopKShare  = 0.02
	mixWarmRounds = 3
)

// mixKind is one kind of collective call in the round.
type mixKind struct {
	name   string // also the per-layer metric collective.<name>_us_p50
	repeat int    // calls per round
}

// The repeat counts balance the round on the 2-core reference host, where
// one call costs ≈0.16 ms dense, ≈2.2 ms PowerSGD, ≈2 ms sparse and
// ≈0.04 ms broadcast (benchmark/README.md has the measured shares).
var mixKinds = []mixKind{
	{"dense", 8},
	{"powersgd", 1},
	{"sparse", 1},
	{"broadcast", 16},
}

func mixCallsPerRound() int {
	n := 0
	for _, k := range mixKinds {
		n += k.repeat
	}
	return n
}

// mixInputs are the tensors the seed determines, one list of mixRanks
// buffers per kind.
type mixInputs struct {
	bufs [][]*tensor.Matrix
}

func genMixInputs(seed int64) mixInputs {
	var in mixInputs
	for i, k := range mixKinds {
		side := mixSmall
		if k.name == "sparse" {
			side = mixLarge
		}
		in.bufs = append(in.bufs, genTensors(seed+int64(i), mixRanks, side, side))
	}
	return in
}

// mixState is a built collective-mix workload.
type mixState struct {
	rt    *collective.Runtime
	grp   *collective.Group
	bufs  [][]*tensor.Matrix // per kind
	power []*compress.ErrorFeedback
	topk  []*compress.ErrorFeedback
}

// mixCompressors builds the per-rank error-feedback compressors; the serial
// reference builds its own identical set.
func mixCompressors(pool *tensor.Pool) (power, topk []*compress.ErrorFeedback) {
	for r := 0; r < mixRanks; r++ {
		p := compress.NewErrorFeedback(compress.NewPowerSGD(mixPowerRank, int64(100+r)))
		t := compress.NewErrorFeedback(compress.NewTopK(mixTopKShare))
		if pool != nil {
			p.SetPool(pool)
			t.SetPool(pool)
		}
		power, topk = append(power, p), append(topk, t)
	}
	return power, topk
}

func newMixState(in mixInputs) (*mixState, error) {
	topo, err := collective.NewTopology(mixRanks, 1)
	if err != nil {
		return nil, err
	}
	st := &mixState{rt: collective.NewRuntime(topo, collective.NewMemTransport(mixRanks), nil)}
	st.grp = st.rt.NewGroup(collective.ClassDP, topo.DPGroup(0))
	st.power, st.topk = mixCompressors(st.rt.Pool())
	for _, b := range in.bufs {
		st.bufs = append(st.bufs, cloneTensors(b))
	}
	return st, nil
}

func (st *mixState) close() { st.rt.Close() }

// call issues one call of kind k.
func (st *mixState) call(k int) {
	const scale = 1.0 / mixRanks
	switch mixKinds[k].name {
	case "dense":
		st.grp.AllReduce(st.bufs[k], scale)
	case "powersgd":
		st.grp.AllReduceCompressed(st.bufs[k], st.power, scale)
	case "sparse":
		st.grp.AllReduceCompressed(st.bufs[k], st.topk, scale)
	case "broadcast":
		st.grp.Broadcast(st.bufs[k], 0)
	}
}

// round runs one round; perCall, when non-nil, receives each call's kind
// and wall time (the traced pass's spans).
func (st *mixState) round(perCall func(k int, start time.Time, d time.Duration)) {
	for k, kind := range mixKinds {
		for i := 0; i < kind.repeat; i++ {
			if perCall == nil {
				st.call(k)
				continue
			}
			t0 := time.Now()
			st.call(k)
			perCall(k, t0, time.Since(t0))
		}
	}
}

// checkFirstCalls issues the first call of every kind on a fresh state and
// requires each rank's buffer to equal the serial reduction — zero, ordered
// sum over ranks, scale — at tolerance zero. It consumes the state's first
// round, so callers run it on a state of its own.
func checkFirstCalls(res *passResult, in mixInputs) error {
	st, err := newMixState(in)
	if err != nil {
		return err
	}
	defer st.close()
	power, topk := mixCompressors(nil)
	const scale = 1.0 / mixRanks
	for k, kind := range mixKinds {
		src := in.bufs[k]
		ref := tensor.New(src[0].Rows, src[0].Cols)
		switch kind.name {
		case "dense":
			for _, b := range src {
				ref.Add(b)
			}
			ref.Scale(scale)
		case "powersgd", "sparse":
			efs := power
			if kind.name == "sparse" {
				efs = topk
			}
			for r, b := range src {
				_, recon := efs[r].CompressWithFeedback(b)
				ref.Add(recon)
			}
			ref.Scale(scale)
		case "broadcast":
			ref.CopyFrom(src[0])
		}
		st.call(k)
		ok := true
		for _, b := range st.bufs[k] {
			ok = ok && b.Equal(ref, 0)
		}
		res.expect("first "+kind.name+" call equals the serial reduction", ok,
			"a rank's buffer differs from the serial reference at tolerance 0")
	}
	return nil
}

func collectiveWorkload() workload {
	return workload{
		name:  wlCollective,
		why:   "ring schedules four ways (dense, PowerSGD, TopK merge-union, broadcast) on 8 ranks without the trainer diluting them; a gain for one call kind that costs another shows here",
		run:   collectiveRun,
		trace: collectiveTrace,
	}
}

func warmMix(in mixInputs) (*mixState, error) {
	st, err := newMixState(in)
	if err != nil {
		return nil, err
	}
	for i := 0; i < mixWarmRounds; i++ {
		st.round(nil)
	}
	return st, nil
}

func collectiveRun(env runEnv) (*passResult, error) {
	in := genMixInputs(env.seed)
	res := newPassResult()
	var series [][]time.Duration
	setups, err := overBuilds(env.window(),
		func() (*mixState, error) { return warmMix(in) },
		func(st *mixState, window time.Duration) error {
			durs, _ := loop(window, 20, func(int) bool { st.round(nil); return true })
			series = append(series, durs)
			res.attempted += int64(len(durs))
			return nil
		},
		(*mixState).close)
	if err != nil {
		return nil, err
	}
	res.endToEndMetrics(timed{series: series, clients: 1, setups: setups, workPerOp: float64(mixCallsPerRound())})
	if err := checkFirstCalls(res, in); err != nil {
		return nil, err
	}
	return res, nil
}

func collectiveTrace(env runEnv) (*passResult, error) {
	in := genMixInputs(env.seed)
	st, err := warmMix(in)
	if err != nil {
		return nil, err
	}
	defer st.close()
	res := newPassResult()

	// Untraced rounds: the counters per round.
	wire0, pool0, sp0 := st.rt.Stats(), st.rt.Pool().Stats(), st.rt.SparseReduceStats()
	mem := startMemProbe()
	plain, _ := loop(env.share(untracedShare), 50, func(int) bool { st.round(nil); return true })
	alloc := mem.since()
	wire := st.rt.Stats().Sub(wire0).For(collective.ClassDP)
	pool1, sp1 := st.rt.Pool().Stats(), st.rt.SparseReduceStats()
	n := float64(len(plain))
	res.attempted += int64(len(plain))
	res.set("collective.dp_wire_bytes_per_iter", float64(wire.Bytes)/n, len(plain))
	res.set("collective.wire_bytes_per_iter", float64(wire.Bytes)/n, len(plain))
	res.set("collective.messages_per_iter", float64(wire.Messages)/n, len(plain))
	res.set("collective.steps_per_iter", float64(wire.Steps)/n, len(plain))
	res.set("collective.ops_per_iter", float64(mixCallsPerRound()), len(plain))
	res.set("collective.allocs_per_round", float64(alloc.mallocs)/n, len(plain))
	if gets := pool1.Gets - pool0.Gets; gets > 0 {
		res.set("tensor.pool_hit_ratio", float64(pool1.Hits-pool0.Hits)/float64(gets), len(plain))
	}
	sparse := sp1.SparseOps - sp0.SparseOps
	fallbacks := sp1.DenseFallbacks - sp0.DenseFallbacks
	if sparse+fallbacks > 0 {
		res.set("collective.sparse_fallback_ratio", float64(fallbacks)/float64(sparse+fallbacks), int(sparse+fallbacks))
	}

	// Traced rounds: the benchmark's own span around every call.
	epoch := time.Now()
	perKind := make([][]time.Duration, len(mixKinds))
	tracks := make([]traceTrack, len(mixKinds))
	for k, kind := range mixKinds {
		tracks[k].name = "bench/" + kind.name
	}
	traced, _ := loop(env.share(tracedShare), 50, func(int) bool {
		st.round(func(k int, start time.Time, d time.Duration) {
			perKind[k] = append(perKind[k], d)
			tracks[k].spans = append(tracks[k].spans, spanAt(epoch, mixKinds[k].name, start, d))
		})
		return true
	})
	res.attempted += int64(len(traced))
	for k, kind := range mixKinds {
		res.set("collective."+kind.name+"_us_p50", median(micros(perKind[k])), len(perKind[k]))
	}
	res.tracks = tracks

	res.set("compress.powersgd_roundtrip_us", powerSGDRoundTrip(env.seed, mixPowerRank, mixSmall, mixSmall), probeCalls)
	res.set("compress.topk_roundtrip_us", topKRoundTrip(env.seed, mixTopKShare, mixLarge, mixLarge), probeCalls)
	res.set("compress.ratio", compress.NewPowerSGD(mixPowerRank, 1).Ratio(mixSmall, mixSmall), 1)
	if err := checkFirstCalls(res, in); err != nil {
		return nil, err
	}
	return res, nil
}
