package model

import (
	"math"

	"repro/internal/tensor"
)

// Inference-only forward passes. These recompute the network from weights
// without touching the per-micro-batch activation queues, so evaluation
// can run at any point during pipelined training without corrupting
// in-flight state.

// inferLinear computes x·W + b without caching.
func inferLinear(l *Linear, x *tensor.Matrix) *tensor.Matrix {
	return tensor.MatMul(x, l.W).AddRowVector(l.B)
}

// inferLayerNorm normalizes without caching.
func inferLayerNorm(ln *LayerNorm, x *tensor.Matrix) *tensor.Matrix {
	y := tensor.New(x.Rows, x.Cols)
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
		yr := y.Row(i)
		for j, v := range row {
			yr[j] = float64((v-mu)*inv*ln.Gain.Data[j]) + ln.Bias.Data[j]
		}
	}
	return y
}

// inferBlock runs one residual block without caching.
func inferBlock(b *Block, x *tensor.Matrix) *tensor.Matrix {
	z := inferLinear(b.Lin, x)
	n := inferLayerNorm(b.LN, z)
	tensor.GELU(n)
	return x.Clone().Add(n)
}

// inferLookup embeds contexts without caching.
func inferLookup(e *Embedding, contexts [][]int) *tensor.Matrix {
	b := len(contexts)
	c := len(contexts[0])
	h := e.Hidden()
	out := tensor.New(b, c*h)
	for i, ctx := range contexts {
		row := out.Row(i)
		for p, tok := range ctx {
			copy(row[p*h:(p+1)*h], e.W.Row(tok))
		}
	}
	return out
}

// InferLogits runs the full stage chain on contexts in inference mode and
// returns the B×V logits. Stages must cover the whole model (first..last).
func InferLogits(stages []*Stage, contexts [][]int) *tensor.Matrix {
	first := stages[0]
	if !first.IsFirst() {
		panic("model: InferLogits needs the full stage chain")
	}
	h := inferLinear(first.InProj, inferLookup(first.Emb, contexts))
	for _, s := range stages {
		for _, b := range s.Blocks {
			h = inferBlock(b, h)
		}
	}
	last := stages[len(stages)-1]
	if !last.IsLast() {
		panic("model: InferLogits needs the full stage chain")
	}
	n := inferLayerNorm(last.OutLN, h)
	logits := tensor.New(n.Rows, last.OutEmb.Vocab())
	tensor.MatMulBTInto(logits, n, last.OutEmb.W)
	return logits
}

// Inferencer adapts a stage chain to the data.Predictor interface for
// zero-shot task evaluation.
type Inferencer struct {
	Stages []*Stage
}

// PredictLogits implements data.Predictor.
func (inf Inferencer) PredictLogits(contexts [][]int) *tensor.Matrix {
	return InferLogits(inf.Stages, contexts)
}
