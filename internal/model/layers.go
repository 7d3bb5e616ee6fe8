// Package model implements the GPT stand-in used by the reproduction: an
// MLP language model with tied input/output embeddings, organized as a
// chain of residual blocks that can be partitioned into pipeline stages.
//
// The structural properties that matter to Optimus-CC are preserved
// exactly: inter-stage traffic is a dense B×H activation (forward) or
// activation-gradient (backward) matrix; the embedding table is shared by
// the first and last stages, so its gradients need synchronization (§6);
// every parameter has a dense gradient that data-parallel training must
// all-reduce.
//
// Because the 1F1B schedule keeps several micro-batches in flight per
// stage, every layer stores its forward activations in a FIFO queue;
// Backward consumes them in micro-batch order, exactly as pipeline
// frameworks stash per-micro-batch activation state. The matrices behind
// that state, and every other intermediate of a micro-batch, come from a
// free list the stage owns (scratch.go) rather than from the allocator.
package model

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	W, B   *tensor.Matrix // W: in×out, B: 1×out
	GW, GB *tensor.Matrix // gradients, accumulated across micro-batches
	xQueue fifo[*tensor.Matrix]
	scr    *scratch
}

// NewLinear returns a Xavier-initialized in×out layer.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	return &Linear{
		W:  tensor.XavierInit(rng, in, out),
		B:  tensor.New(1, out),
		GW: tensor.New(in, out),
		GB: tensor.New(1, out),
	}
}

// Forward computes y = x·W + b and enqueues x for Backward. x is borrowed
// until the matching Backward has returned; the caller owns y.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.xQueue.push(x)
	y := l.scr.get(x.Rows, l.W.Cols)
	tensor.MatMulInto(y, x, l.W)
	return y.AddRowVector(l.B)
}

// Backward accumulates parameter gradients from dy (for the oldest
// in-flight micro-batch) and returns dx, which the caller owns.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if l.xQueue.len() == 0 {
		panic("model: Linear.Backward with no in-flight forward")
	}
	x := l.xQueue.pop()
	// gw is a product of its own, added into GW afterwards: accumulating
	// xᵀ·dy straight into GW would sum each element in a different order.
	gw := l.scr.get(l.W.Rows, l.W.Cols)
	tensor.MatMulATInto(gw, x, dy)
	l.GW.Add(gw)
	l.scr.put(gw)
	l.GB.AccumulateRows(dy)
	dx := l.scr.get(x.Rows, x.Cols)
	tensor.MatMulBTInto(dx, dy, l.W)
	return dx
}

// lnCache is the per-micro-batch forward state of a LayerNorm.
type lnCache struct {
	xHat   *tensor.Matrix
	invStd *tensor.Matrix // 1×rows
}

// LayerNorm normalizes each row to zero mean and unit variance, then
// applies a learned gain and bias. The paper's Eq. 14 argument relies on
// normalization driving activation averages to zero; LayerNorm provides it.
type LayerNorm struct {
	Gain, Bias   *tensor.Matrix // 1×dim
	GGain, GBias *tensor.Matrix
	queue        fifo[lnCache]
	scr          *scratch
}

const lnEps = 1e-5

// NewLayerNorm returns an identity-initialized LayerNorm over dim features.
func NewLayerNorm(dim int) *LayerNorm {
	ln := &LayerNorm{
		Gain:  tensor.New(1, dim),
		Bias:  tensor.New(1, dim),
		GGain: tensor.New(1, dim),
		GBias: tensor.New(1, dim),
	}
	ln.Gain.Fill(1)
	return ln
}

// Forward normalizes each row of x. x is not retained; the caller owns
// the result.
func (ln *LayerNorm) Forward(x *tensor.Matrix) *tensor.Matrix {
	y := ln.scr.get(x.Rows, x.Cols)
	c := lnCache{xHat: ln.scr.get(x.Rows, x.Cols), invStd: ln.scr.get(1, x.Rows)}
	d := float64(x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		mu := tensor.Mean(row)
		var va float64
		for _, v := range row {
			dv := v - mu
			va += float64(dv * dv)
		}
		va /= d
		inv := 1 / math.Sqrt(va+lnEps)
		c.invStd.Data[i] = inv
		xh := c.xHat.Row(i)
		yr := y.Row(i)
		for j, v := range row {
			h := (v - mu) * inv
			xh[j] = h
			yr[j] = float64(h*ln.Gain.Data[j]) + ln.Bias.Data[j]
		}
	}
	ln.queue.push(c)
	return y
}

// Backward accumulates gain/bias gradients and returns dx (owned by the
// caller) using the standard layer-norm backward formula.
func (ln *LayerNorm) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if ln.queue.len() == 0 {
		panic("model: LayerNorm.Backward with no in-flight forward")
	}
	c := ln.queue.pop()
	dx := ln.scr.get(dy.Rows, dy.Cols)
	d := float64(dy.Cols)
	dxhRow := ln.scr.get(1, dy.Cols)
	dxh := dxhRow.Data
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Row(i)
		xh := c.xHat.Row(i)
		var sumDxh, sumDxhXh float64
		for j, g := range dyr {
			ln.GGain.Data[j] += float64(g * xh[j])
			ln.GBias.Data[j] += g
			v := float64(g * ln.Gain.Data[j])
			dxh[j] = v
			sumDxh += v
			sumDxhXh += float64(v * xh[j])
		}
		inv := c.invStd.Data[i]
		dxr := dx.Row(i)
		for j := range dxr {
			dxr[j] = inv / d * (float64(d*dxh[j]) - sumDxh - float64(xh[j]*sumDxhXh))
		}
	}
	ln.scr.put(dxhRow)
	ln.scr.put(c.xHat)
	ln.scr.put(c.invStd)
	return dx
}

// blockCache is the per-micro-batch forward state of a Block: the GELU
// input and the tanh the activation took of it.
type blockCache struct {
	pre, tanh *tensor.Matrix
}

// Block is one residual unit: y = x + GELU(LayerNorm(x·W + b)).
// Residual connections keep deep pipelines trainable; the block's dense
// H×H weight is the unit of data-parallel gradient compression.
type Block struct {
	Lin   *Linear
	LN    *LayerNorm
	queue fifo[blockCache]
	scr   *scratch
}

// NewBlock returns a residual block over hidden dim h.
func NewBlock(rng *rand.Rand, h int) *Block {
	return &Block{Lin: NewLinear(rng, h, h), LN: NewLayerNorm(h)}
}

// setScratch points the block and its layers at a stage's free list.
func (b *Block) setScratch(scr *scratch) {
	b.scr, b.Lin.scr, b.LN.scr = scr, scr, scr
}

// Forward runs the block. x is borrowed until the matching Backward has
// returned; the caller owns the result.
func (b *Block) Forward(x *tensor.Matrix) *tensor.Matrix {
	z := b.Lin.Forward(x)
	n := b.LN.Forward(z)
	b.scr.put(z)
	c := blockCache{pre: n, tanh: b.scr.get(n.Rows, n.Cols)}
	out := b.scr.get(x.Rows, x.Cols)
	tensor.GELUForwardInto(out, c.tanh, x, n)
	b.queue.push(c)
	return out
}

// Backward runs the block's backward pass and returns dx, which the
// caller owns. The GELU derivative comes from the tanh Forward stashed, so
// backward makes no libm call.
func (b *Block) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if b.queue.len() == 0 {
		panic("model: Block.Backward with no in-flight forward")
	}
	c := b.queue.pop()
	dAct := b.scr.get(dy.Rows, dy.Cols)
	tensor.GELUBackwardInto(dAct, dy, c.pre, c.tanh)
	b.scr.put(c.pre)
	b.scr.put(c.tanh)
	dz := b.LN.Backward(dAct)
	b.scr.put(dAct)
	dx := b.Lin.Backward(dz)
	b.scr.put(dz)
	return dx.Add(dy) // residual path
}

// Params returns the block's parameter matrices in a fixed order.
func (b *Block) Params() []*tensor.Matrix {
	return []*tensor.Matrix{b.Lin.W, b.Lin.B, b.LN.Gain, b.LN.Bias}
}

// Grads returns the gradient matrices aligned with Params.
func (b *Block) Grads() []*tensor.Matrix {
	return []*tensor.Matrix{b.Lin.GW, b.Lin.GB, b.LN.GGain, b.LN.GBias}
}

// String identifies the block size for debugging.
func (b *Block) String() string {
	return fmt.Sprintf("Block(h=%d)", b.Lin.W.Rows)
}
