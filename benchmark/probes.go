package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/collective"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Probes time one layer's public functions directly, at the shapes the
// workload drives them with, where the program records no span of its own.
// They are fixed-count and short: a probe is a median of probeCalls calls.
const (
	probeWarm  = 20
	probeCalls = 200
)

// trainProbes fills the probe metrics of a train-* workload.
func trainProbes(res *passResult, spec trainSpec, cfg train.Config, corpus *data.Corpus, env runEnv) {
	// data: the batch sampling one iteration does.
	rng := rand.New(rand.NewSource(env.seed))
	res.set("data.sample_us_per_iter", timeCalls(probeWarm, probeCalls, func() {
		for i := 0; i < cfg.DPGroups*cfg.MicroBatches; i++ {
			corpus.SampleBatch(rng, cfg.MicroBatch, cfg.Model.Context)
		}
	}), probeCalls)

	// tensor: the block matmul at this micro-batch and width.
	h := cfg.Model.Hidden
	mats := genTensors(env.seed, 2, h, h)
	act := tensor.RandN(rng, cfg.MicroBatch, h, 1)
	out := tensor.New(cfg.MicroBatch, h)
	res.set("tensor.matmul_us", timeCalls(probeWarm, probeCalls, func() {
		tensor.MatMulInto(out, act, mats[0])
	}), probeCalls)

	// compress: the boundary compressor's round trip.
	if cfg.Opt.CompressBackprop || cfg.Opt.SelectiveStageFraction > 0 {
		rank := cfg.Opt.CBRank
		if !cfg.Opt.CompressBackprop {
			rank = cfg.Opt.DPRank
		}
		res.set("compress.powersgd_roundtrip_us",
			powerSGDRoundTrip(env.seed, rank, cfg.MicroBatch, h), probeCalls)
	}

	// The wire path under a DP-heavy grid: codec and all-reduce at the
	// largest DP-synchronized gradient, in process and over unix sockets.
	if cfg.DPGroups > cfg.Stages {
		grad := mats[1]
		buf := tensor.AppendMatrix(nil, grad)
		res.set("tensor.codec_encode_us", timeCalls(probeWarm, probeCalls, func() {
			buf = tensor.AppendMatrix(buf[:0], grad)
		}), probeCalls)
		pool := tensor.NewPool()
		res.set("tensor.codec_decode_us", timeCalls(probeWarm, probeCalls, func() {
			m, _, err := tensor.DecodeMatrix(buf, pool.GetUninit)
			if err == nil {
				pool.Put(m)
			}
		}), probeCalls)
		memUs, unixUs, err := allReduceProbe(env, cfg.DPGroups, h, h)
		res.expect("all-reduce probe ran over both transports", err == nil, "%v", err)
		if err == nil {
			res.set("collective.allreduce_mem_us", memUs, probeCalls)
			res.set("collective.allreduce_unix_us", unixUs, probeCalls)
			res.set("collective.unix_vs_mem_ratio", unixUs/memUs, probeCalls)
		}
	}
}

// powerSGDRoundTrip times compress + reconstruct + residual update of a
// rank-r PowerSGD compressor behind error feedback.
func powerSGDRoundTrip(seed int64, rank, rows, cols int) float64 {
	ef := compress.NewErrorFeedback(compress.NewPowerSGD(rank, seed))
	ef.SetPool(tensor.NewPool())
	g := genTensors(seed, 1, rows, cols)[0]
	return timeCalls(probeWarm, probeCalls, func() { ef.CompressWithFeedback(g) })
}

// topKRoundTrip times the sparse-native TopK entry point.
func topKRoundTrip(seed int64, fraction float64, rows, cols int) float64 {
	ef := compress.NewErrorFeedback(compress.NewTopK(fraction))
	ef.SetPool(tensor.NewPool())
	g := genTensors(seed, 1, rows, cols)[0]
	return timeCalls(probeWarm, probeCalls, func() { ef.CompressWithFeedbackSparse(g) })
}

// allReduceProbe times the same d-rank dense ring all-reduce over
// MemTransport and over a unix-socket mesh with one runtime per rank.
func allReduceProbe(env runEnv, d, rows, cols int) (memUs, unixUs float64, err error) {
	topo, err := collective.NewTopology(d, 1)
	if err != nil {
		return 0, 0, err
	}
	scale := 1 / float64(d)

	memRT := collective.NewRuntime(topo, nil, nil)
	memGrp := memRT.NewGroup(collective.ClassDP, topo.DPGroup(0))
	memBufs := genTensors(env.seed, d, rows, cols)
	memUs = timeCalls(probeWarm, probeCalls, func() { memGrp.AllReduce(memBufs, scale) })
	memRT.Close()

	mesh, err := newSocketMesh(env.scratch, d)
	if err != nil {
		return 0, 0, err
	}
	defer mesh.close()
	rts := make([]*collective.Runtime, d)
	grps := make([]*collective.Group, d)
	bufs := make([][]*tensor.Matrix, d)
	for r := range rts {
		rts[r] = collective.NewRuntime(topo, mesh.socks[r], nil)
		defer rts[r].Close()
		grps[r] = rts[r].NewGroup(collective.ClassDP, topo.DPGroup(0))
		bufs[r] = genTensors(env.seed, d, rows, cols)
	}
	unixUs = timeCalls(probeWarm, probeCalls, func() {
		var wg sync.WaitGroup
		for r := range grps {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				grps[r].AllReduce(bufs[r], scale)
			}(r)
		}
		wg.Wait()
	})
	return memUs, unixUs, mesh.err()
}

// socketMesh is a fully rendezvoused world of in-process unix
// SocketTransports, one per rank.
type socketMesh struct {
	socks []*collective.SocketTransport
	dir   string
}

var sockDirSeq atomic.Int64

func newSocketMesh(scratch string, world int) (*socketMesh, error) {
	// Relative and short: sun_path caps a unix socket address near 100 bytes.
	m := &socketMesh{dir: filepath.Join(scratch, fmt.Sprintf("s%d", sockDirSeq.Add(1)))}
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		return nil, err
	}
	addrs := make([]string, world)
	for r := range addrs {
		addrs[r] = filepath.Join(m.dir, fmt.Sprintf("r%d.sock", r))
	}
	m.socks = make([]*collective.SocketTransport, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m.socks[r], errs[r] = collective.NewSocketTransport(collective.SocketConfig{
				Network: "unix", Rank: r, World: world, Addrs: addrs,
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			m.close()
			return nil, fmt.Errorf("rank %d transport: %w", r, err)
		}
	}
	return m, nil
}

// err reports the first transport failure.
func (m *socketMesh) err() error {
	for r, s := range m.socks {
		if err := s.Err(); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

func (m *socketMesh) close() {
	for _, s := range m.socks {
		if s != nil {
			s.Close()
		}
	}
	os.RemoveAll(m.dir)
}
