package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The reference layers below are the forward and backward passes as they
// stood before the stage-owned scratch and the stashed tanh: every
// intermediate freshly allocated, queues popped by re-slicing, GELU applied
// in place over a clone and its derivative recomputed from the
// pre-activation. They are kept verbatim as the oracle — the layers in
// layers.go, embedding.go and stage.go must produce the same bits from
// recycled storage, in any interleaving of forwards and backwards.

type refLinear struct {
	W, B   *tensor.Matrix
	GW, GB *tensor.Matrix
	xQueue []*tensor.Matrix
}

func (l *refLinear) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.xQueue = append(l.xQueue, x)
	y := tensor.MatMul(x, l.W)
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		for j := range row {
			row[j] += l.B.Data[j]
		}
	}
	return y
}

func (l *refLinear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	x := l.xQueue[0]
	l.xQueue = l.xQueue[1:]
	gw := tensor.New(l.W.Rows, l.W.Cols)
	tensor.MatMulATInto(gw, x, dy)
	l.GW.Add(gw)
	for i := 0; i < dy.Rows; i++ {
		row := dy.Row(i)
		for j := range row {
			l.GB.Data[j] += row[j]
		}
	}
	dx := tensor.New(x.Rows, x.Cols)
	tensor.MatMulBTInto(dx, dy, l.W)
	return dx
}

type refLNCache struct {
	xHat   *tensor.Matrix
	invStd []float64
}

type refLayerNorm struct {
	Gain, Bias   *tensor.Matrix
	GGain, GBias *tensor.Matrix
	queue        []refLNCache
}

func (ln *refLayerNorm) Forward(x *tensor.Matrix) *tensor.Matrix {
	y := tensor.New(x.Rows, x.Cols)
	c := refLNCache{xHat: tensor.New(x.Rows, x.Cols), invStd: make([]float64, x.Rows)}
	d := float64(x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		mu := tensor.Mean(row)
		var va float64
		for _, v := range row {
			dv := v - mu
			va += dv * dv
		}
		va /= d
		inv := 1 / math.Sqrt(va+lnEps)
		c.invStd[i] = inv
		xh := c.xHat.Row(i)
		yr := y.Row(i)
		for j, v := range row {
			h := (v - mu) * inv
			xh[j] = h
			yr[j] = h*ln.Gain.Data[j] + ln.Bias.Data[j]
		}
	}
	ln.queue = append(ln.queue, c)
	return y
}

func (ln *refLayerNorm) Backward(dy *tensor.Matrix) *tensor.Matrix {
	c := ln.queue[0]
	ln.queue = ln.queue[1:]
	dx := tensor.New(dy.Rows, dy.Cols)
	d := float64(dy.Cols)
	dxh := make([]float64, dy.Cols)
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Row(i)
		xh := c.xHat.Row(i)
		var sumDxh, sumDxhXh float64
		for j, g := range dyr {
			ln.GGain.Data[j] += g * xh[j]
			ln.GBias.Data[j] += g
			v := g * ln.Gain.Data[j]
			dxh[j] = v
			sumDxh += v
			sumDxhXh += v * xh[j]
		}
		inv := c.invStd[i]
		dxr := dx.Row(i)
		for j := range dxr {
			dxr[j] = inv / d * (d*dxh[j] - sumDxh - xh[j]*sumDxhXh)
		}
	}
	return dx
}

type refBlock struct {
	Lin      *refLinear
	LN       *refLayerNorm
	preQueue []*tensor.Matrix
}

func (b *refBlock) Forward(x *tensor.Matrix) *tensor.Matrix {
	z := b.Lin.Forward(x)
	n := b.LN.Forward(z)
	b.preQueue = append(b.preQueue, n.Clone())
	act := tensor.GELU(n)
	return x.Clone().Add(act)
}

func (b *refBlock) Backward(dy *tensor.Matrix) *tensor.Matrix {
	pre := b.preQueue[0]
	b.preQueue = b.preQueue[1:]
	dAct := tensor.New(dy.Rows, dy.Cols)
	for i, v := range pre.Data {
		dAct.Data[i] = dy.Data[i] * tensor.GELUGrad(v)
	}
	dz := b.LN.Backward(dAct)
	dx := b.Lin.Backward(dz)
	return dx.Add(dy)
}

type refEmbedding struct {
	W, GW    *tensor.Matrix
	ctxQueue [][][]int
	hQueue   []*tensor.Matrix
}

func (e *refEmbedding) LookupConcat(contexts [][]int) *tensor.Matrix {
	b, c, h := len(contexts), len(contexts[0]), e.W.Cols
	out := tensor.New(b, c*h)
	for i, ctx := range contexts {
		row := out.Row(i)
		for p, tok := range ctx {
			copy(row[p*h:(p+1)*h], e.W.Row(tok))
		}
	}
	e.ctxQueue = append(e.ctxQueue, contexts)
	return out
}

func (e *refEmbedding) BackwardLookup(dOut *tensor.Matrix) {
	contexts := e.ctxQueue[0]
	e.ctxQueue = e.ctxQueue[1:]
	h := e.W.Cols
	for i, ctx := range contexts {
		row := dOut.Row(i)
		for p, tok := range ctx {
			grow := e.GW.Row(tok)
			seg := row[p*h : (p+1)*h]
			for j, v := range seg {
				grow[j] += v
			}
		}
	}
}

func (e *refEmbedding) ProjectLogits(h *tensor.Matrix) *tensor.Matrix {
	logits := tensor.New(h.Rows, e.W.Rows)
	tensor.MatMulBTInto(logits, h, e.W)
	e.hQueue = append(e.hQueue, h)
	return logits
}

func (e *refEmbedding) BackwardLogits(dLogits *tensor.Matrix) *tensor.Matrix {
	h := e.hQueue[0]
	e.hQueue = e.hQueue[1:]
	gw := tensor.New(e.W.Rows, e.W.Cols)
	tensor.MatMulATInto(gw, dLogits, h)
	e.GW.Add(gw)
	dh := tensor.New(h.Rows, h.Cols)
	tensor.MatMulInto(dh, dLogits, e.W)
	return dh
}

// refStage mirrors Stage over the reference layers.
type refStage struct {
	first, last bool
	Emb         *refEmbedding
	InProj      *refLinear
	Blocks      []*refBlock
	OutEmb      *refEmbedding
	OutLN       *refLayerNorm
}

func zerosLike(m *tensor.Matrix) *tensor.Matrix { return tensor.New(m.Rows, m.Cols) }

func refLinearOf(l *Linear) *refLinear {
	return &refLinear{W: l.W.Clone(), B: l.B.Clone(), GW: zerosLike(l.GW), GB: zerosLike(l.GB)}
}

func refLayerNormOf(ln *LayerNorm) *refLayerNorm {
	return &refLayerNorm{Gain: ln.Gain.Clone(), Bias: ln.Bias.Clone(), GGain: zerosLike(ln.GGain), GBias: zerosLike(ln.GBias)}
}

func refEmbeddingOf(e *Embedding) *refEmbedding {
	return &refEmbedding{W: e.W.Clone(), GW: zerosLike(e.GW)}
}

// newRefStage copies s's weights into a reference stage with zero
// gradients.
func newRefStage(s *Stage) *refStage {
	r := &refStage{first: s.IsFirst(), last: s.IsLast()}
	if s.Emb != nil {
		r.Emb = refEmbeddingOf(s.Emb)
		r.InProj = refLinearOf(s.InProj)
	}
	for _, b := range s.Blocks {
		r.Blocks = append(r.Blocks, &refBlock{Lin: refLinearOf(b.Lin), LN: refLayerNormOf(b.LN)})
	}
	if s.OutLN != nil {
		r.OutLN = refLayerNormOf(s.OutLN)
		if s.OutEmb == s.Emb {
			r.OutEmb = r.Emb
		} else {
			r.OutEmb = refEmbeddingOf(s.OutEmb)
		}
	}
	return r
}

func (s *refStage) ForwardTokens(contexts [][]int) *tensor.Matrix {
	x := s.Emb.LookupConcat(contexts)
	h := s.InProj.Forward(x)
	for _, b := range s.Blocks {
		h = b.Forward(h)
	}
	return h
}

func (s *refStage) ForwardHidden(h *tensor.Matrix) *tensor.Matrix {
	for _, b := range s.Blocks {
		h = b.Forward(h)
	}
	return h
}

func (s *refStage) Logits(h *tensor.Matrix) *tensor.Matrix {
	n := s.OutLN.Forward(h)
	return s.OutEmb.ProjectLogits(n)
}

func (s *refStage) BackwardLogits(dLogits *tensor.Matrix) *tensor.Matrix {
	dh := s.OutEmb.BackwardLogits(dLogits)
	dh = s.OutLN.Backward(dh)
	return s.backwardBlocks(dh)
}

func (s *refStage) BackwardHidden(dh *tensor.Matrix) *tensor.Matrix {
	return s.backwardBlocks(dh)
}

func (s *refStage) backwardBlocks(dh *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Blocks) - 1; i >= 0; i-- {
		dh = s.Blocks[i].Backward(dh)
	}
	if s.first {
		dx := s.InProj.Backward(dh)
		s.Emb.BackwardLookup(dx)
		return nil
	}
	return dh
}

// Params and Grads follow Stage.Params/Grads order.
func (s *refStage) Params() (ps []*tensor.Matrix) {
	if s.Emb != nil {
		ps = append(ps, s.Emb.W, s.InProj.W, s.InProj.B)
	}
	for _, b := range s.Blocks {
		ps = append(ps, b.Lin.W, b.Lin.B, b.LN.Gain, b.LN.Bias)
	}
	if s.OutLN != nil {
		ps = append(ps, s.OutLN.Gain, s.OutLN.Bias)
	}
	if s.OutEmb != nil && s.OutEmb != s.Emb {
		ps = append(ps, s.OutEmb.W)
	}
	return ps
}

func (s *refStage) Grads() (gs []*tensor.Matrix) {
	if s.Emb != nil {
		gs = append(gs, s.Emb.GW, s.InProj.GW, s.InProj.GB)
	}
	for _, b := range s.Blocks {
		gs = append(gs, b.Lin.GW, b.Lin.GB, b.LN.GGain, b.LN.GBias)
	}
	if s.OutLN != nil {
		gs = append(gs, s.OutLN.GGain, s.OutLN.GBias)
	}
	if s.OutEmb != nil && s.OutEmb != s.Emb {
		gs = append(gs, s.OutEmb.GW)
	}
	return gs
}

// sameBits fails the test unless got and want agree bit for bit.
func sameBits(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: got nil=%v, reference nil=%v", what, got == nil, want == nil)
	}
	if got == nil {
		return
	}
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, reference %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, reference %v", what, i, v, want.Data[i])
		}
	}
}

// chainPair drives a stage chain and its reference twin through the same
// micro-batches and compares everything that crosses a stage boundary.
type chainPair struct {
	t      *testing.T
	stages []*Stage
	refs   []*refStage
	// handed remembers every matrix the real stages returned, with a copy
	// of what it held then: a stage must never recycle what it handed out.
	handed, snapshot []*tensor.Matrix
	// dLogits queues the loss gradients of in-flight micro-batches.
	dLogits, refDLogits []*tensor.Matrix
	// opt steps the stages between iterations, refOpt the references.
	opt    *SGD
	refOpt *refSGD
}

// refSGD is momentum SGD with element-wise clipping as a scalar loop, one
// element at a time, the oracle of SGD.Step: e = g clipped to [−clip,
// clip] (a NaN passes); e = v·μ + e, the new v; p += −lr·e.
type refSGD struct {
	lr, mu, clip float64
	velocity     map[*tensor.Matrix][]float64
}

func (o *refSGD) Step(params, grads []*tensor.Matrix) {
	for i, p := range params {
		v := o.velocity[p]
		if v == nil {
			v = make([]float64, len(p.Data))
			o.velocity[p] = v
		}
		for j, e := range grads[i].Data {
			if e > o.clip {
				e = o.clip
			} else if e < -o.clip {
				e = -o.clip
			}
			e = float64(v[j]*o.mu) + e
			v[j] = e
			p.Data[j] += float64(-o.lr * e)
		}
	}
}

func (c *chainPair) keep(m *tensor.Matrix) {
	if m != nil {
		c.handed = append(c.handed, m)
		c.snapshot = append(c.snapshot, m.Clone())
	}
}

func (c *chainPair) forward(contexts [][]int, targets []int) {
	h, rh := c.stages[0].ForwardTokens(contexts), c.refs[0].ForwardTokens(contexts)
	sameBits(c.t, "stage 0 forward", h, rh)
	c.keep(h)
	for s := 1; s < len(c.stages); s++ {
		h, rh = c.stages[s].ForwardHidden(h), c.refs[s].ForwardHidden(rh)
		sameBits(c.t, "stage forward", h, rh)
		c.keep(h)
	}
	last := len(c.stages) - 1
	logits, rLogits := c.stages[last].Logits(h), c.refs[last].Logits(rh)
	sameBits(c.t, "logits", logits, rLogits)
	c.keep(logits)
	_, d := CrossEntropy(logits, targets)
	_, rd := CrossEntropy(rLogits, targets)
	c.dLogits, c.refDLogits = append(c.dLogits, d), append(c.refDLogits, rd)
}

func (c *chainPair) backward() {
	last := len(c.stages) - 1
	g, rg := c.stages[last].BackwardLogits(c.dLogits[0]), c.refs[last].BackwardLogits(c.refDLogits[0])
	c.dLogits, c.refDLogits = c.dLogits[1:], c.refDLogits[1:]
	sameBits(c.t, "last stage dx", g, rg)
	c.keep(g)
	for s := last - 1; s >= 0; s-- {
		g, rg = c.stages[s].BackwardHidden(g), c.refs[s].BackwardHidden(rg)
		sameBits(c.t, "stage dx", g, rg)
		c.keep(g)
	}
}

// finish compares every gradient, checks nothing handed out was recycled,
// then steps both chains' optimizers — SGD.Step on the stages, the scalar
// refSGD on the references — compares the updated weights and clears the
// gradients, so the next iteration runs on different weights.
func (c *chainPair) finish() {
	for i, m := range c.handed {
		sameBits(c.t, "matrix handed out earlier", m, c.snapshot[i])
	}
	c.handed, c.snapshot = nil, nil
	for s, st := range c.stages {
		ps, gs := st.Params(), st.Grads()
		rps, rgs := c.refs[s].Params(), c.refs[s].Grads()
		if len(gs) != len(rgs) {
			c.t.Fatalf("stage %d: %d gradients, reference %d", s, len(gs), len(rgs))
		}
		for i := range gs {
			sameBits(c.t, "gradient", gs[i], rgs[i])
		}
		c.opt.Step(ps, gs)
		c.refOpt.Step(rps, rgs)
		for i := range gs {
			sameBits(c.t, "parameter after SGD.Step", ps[i], rps[i])
			gs[i].Zero()
			rgs[i].Zero()
		}
	}
}

// TestStagesMatchReferenceAcrossInterleavings is the tol-0 oracle of the
// stage-owned scratch: 1…4 forwards in flight before the first backward,
// then one-forward-one-backward, then the drain — 1F1B as each stage sees
// it — over several iterations, so every buffer in play has been recycled
// many times, on a single-stage chain and a first/middle/last one. Between
// iterations SGD.Step updates the weights and must match a scalar loop.
func TestStagesMatchReferenceAcrossInterleavings(t *testing.T) {
	// Widths that are not multiples of four, so the kernels' remainder
	// paths run too.
	cfg := Config{Vocab: 11, Hidden: 7, Context: 2, Blocks: 4, Seed: 3}
	for _, numStages := range []int{1, 3} {
		for inflight := 1; inflight <= 4; inflight++ {
			stages, err := NewStages(cfg, numStages)
			if err != nil {
				t.Fatal(err)
			}
			// A clip small enough that some gradients hit it.
			c := &chainPair{t: t, stages: stages, opt: NewSGD(0.05, 0.9, 0.02),
				refOpt: &refSGD{lr: 0.05, mu: 0.9, clip: 0.02, velocity: map[*tensor.Matrix][]float64{}}}
			for _, s := range stages {
				c.refs = append(c.refs, newRefStage(s))
			}
			rng := rand.New(rand.NewSource(int64(100*numStages + inflight)))
			for iter := 0; iter < 4; iter++ {
				micro := inflight + 3
				batch := 5 - iter%2 // two batch sizes share one free list
				started := 0
				for ; started < inflight; started++ {
					c.forward(randBatch(rng, cfg, batch))
				}
				for ; started < micro; started++ {
					c.backward()
					c.forward(randBatch(rng, cfg, batch))
				}
				for len(c.dLogits) > 0 {
					c.backward()
				}
				c.finish()
			}
		}
	}
}

// TestStageSteadyStateAllocations pins what a warmed-up stage still takes
// from the allocator for one micro-batch's forward and backward: only the
// matrices that leave it (header + data each). First stage: the forward
// activation. Middle: that and the upstream gradient. Last: the hidden
// state, the logits and the upstream gradient.
func TestStageSteadyStateAllocations(t *testing.T) {
	cfg := Config{Vocab: 11, Hidden: 8, Context: 2, Blocks: 6, Seed: 3}
	stages, err := NewStages(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	contexts, targets := randBatch(rng, cfg, 4)
	in := tensor.RandN(rng, 4, cfg.Hidden, 1)
	dOut := tensor.RandN(rng, 4, cfg.Hidden, 1)
	_, dLogits := CrossEntropy(tensor.RandN(rng, 4, cfg.Vocab, 1), targets)

	cases := []struct {
		name     string
		limit    float64
		fwd, bwd func()
	}{
		{"first", 2,
			func() { stages[0].ForwardTokens(contexts) },
			func() { stages[0].BackwardHidden(dOut) }},
		{"middle", 4,
			func() { stages[1].ForwardHidden(in) },
			func() { stages[1].BackwardHidden(dOut) }},
		{"last", 6,
			func() { stages[2].Logits(stages[2].ForwardHidden(in)) },
			func() { stages[2].BackwardLogits(dLogits) }},
	}
	for _, tc := range cases {
		// Two forwards in flight first, so the free list and the queues
		// have reached a pipeline's depth rather than a single micro-batch's.
		tc.fwd()
		tc.fwd()
		tc.bwd()
		tc.bwd()
		n := testing.AllocsPerRun(20, func() {
			tc.fwd()
			tc.bwd()
		})
		if n > tc.limit {
			t.Errorf("%s stage: %v allocations per micro-batch, want ≤ %v", tc.name, n, tc.limit)
		}
	}
}
