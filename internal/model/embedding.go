package model

import (
	"math/rand"

	"repro/internal/tensor"
)

// Embedding is a V×H token-embedding table. In the stand-in model, as in
// GPT, the same table is used at the input (lookup) and at the output
// (logits = h·Wᵀ). Under pipeline parallelism the first and last stages
// each hold a replica, which is what creates the embedding-synchronization
// traffic of §6.
type Embedding struct {
	W  *tensor.Matrix // V×H
	GW *tensor.Matrix
	// ctxQueue holds the token contexts of in-flight micro-batches for the
	// input-side backward (scatter-add of gradients).
	ctxQueue fifo[[][]int]
	// hQueue holds the hidden states of in-flight micro-batches for the
	// output-side backward.
	hQueue fifo[*tensor.Matrix]
	scr    *scratch
}

// NewEmbedding returns a V×H table with N(0, 0.02²) initialization (the
// GPT-2 convention).
func NewEmbedding(rng *rand.Rand, vocab, hidden int) *Embedding {
	return &Embedding{
		W:  tensor.RandN(rng, vocab, hidden, 0.02),
		GW: tensor.New(vocab, hidden),
	}
}

// Clone returns an embedding with identical weights and fresh zero
// gradients — how the last pipeline stage receives its replica of the
// first stage's table.
func (e *Embedding) Clone() *Embedding {
	return &Embedding{W: e.W.Clone(), GW: tensor.New(e.W.Rows, e.W.Cols)}
}

// Vocab returns V.
func (e *Embedding) Vocab() int { return e.W.Rows }

// Hidden returns H.
func (e *Embedding) Hidden() int { return e.W.Cols }

// LookupConcat embeds a batch of contexts (each a slice of C token ids)
// into a B×(C·H) matrix by concatenating the C embeddings, and enqueues the
// contexts for the input-side backward. The caller owns the result.
func (e *Embedding) LookupConcat(contexts [][]int) *tensor.Matrix {
	b := len(contexts)
	if b == 0 {
		panic("model: empty context batch")
	}
	c := len(contexts[0])
	h := e.Hidden()
	out := e.scr.get(b, c*h) // every row is C copied segments of H
	for i, ctx := range contexts {
		if len(ctx) != c {
			panic("model: ragged context batch")
		}
		row := out.Row(i)
		for p, tok := range ctx {
			copy(row[p*h:(p+1)*h], e.W.Row(tok))
		}
	}
	e.ctxQueue.push(contexts)
	return out
}

// BackwardLookup scatter-adds dOut (B×(C·H)) into the embedding gradient
// for the oldest in-flight context batch.
func (e *Embedding) BackwardLookup(dOut *tensor.Matrix) {
	if e.ctxQueue.len() == 0 {
		panic("model: BackwardLookup with no in-flight lookup")
	}
	contexts := e.ctxQueue.pop()
	h := e.Hidden()
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

// ProjectLogits computes logits = h·Wᵀ (B×V) using the tied table, and
// enqueues h for the output-side backward: h is borrowed until the
// matching BackwardLogits has returned. The caller owns the logits.
func (e *Embedding) ProjectLogits(h *tensor.Matrix) *tensor.Matrix {
	logits := e.scr.get(h.Rows, e.Vocab())
	tensor.MatMulBTInto(logits, h, e.W)
	e.hQueue.push(h)
	return logits
}

// BackwardLogits accumulates the tied-table gradient from dLogits (B×V)
// and returns dh (B×H, owned by the caller) for the oldest in-flight
// projection.
func (e *Embedding) BackwardLogits(dLogits *tensor.Matrix) *tensor.Matrix {
	if e.hQueue.len() == 0 {
		panic("model: BackwardLogits with no in-flight projection")
	}
	h := e.hQueue.pop()
	// dW = dLogitsᵀ·h  (V×H); dh = dLogits·W (B×H).
	gw := e.scr.get(e.Vocab(), e.Hidden())
	tensor.MatMulATInto(gw, dLogits, h)
	e.GW.Add(gw)
	e.scr.put(gw)
	dh := e.scr.get(h.Rows, h.Cols)
	tensor.MatMulInto(dh, dLogits, e.W)
	return dh
}
