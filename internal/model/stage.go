package model

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Config describes the stand-in language model.
type Config struct {
	Vocab   int // vocabulary size V
	Hidden  int // hidden width H (also the embedding width, for tying)
	Context int // number of context tokens C fed to the input projection
	Blocks  int // number of residual blocks, split across pipeline stages
	Seed    int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Vocab < 2:
		return fmt.Errorf("model: Vocab %d < 2", c.Vocab)
	case c.Hidden < 1:
		return fmt.Errorf("model: Hidden %d < 1", c.Hidden)
	case c.Context < 1:
		return fmt.Errorf("model: Context %d < 1", c.Context)
	case c.Blocks < 1:
		return fmt.Errorf("model: Blocks %d < 1", c.Blocks)
	}
	return nil
}

// ParamCount returns the number of scalar parameters of the full model,
// counting the tied embedding once (as the paper does for model sizes).
func (c Config) ParamCount() int64 {
	var n int64
	n += int64(c.Vocab) * int64(c.Hidden)                            // embedding
	n += int64(c.Context*c.Hidden)*int64(c.Hidden) + int64(c.Hidden) // input projection
	perBlock := int64(c.Hidden)*int64(c.Hidden) + 3*int64(c.Hidden)  // W, b, gain, bias
	n += int64(c.Blocks) * perBlock
	return n
}

// Stage is one pipeline stage: a contiguous slice of the model. The first
// stage owns the input embedding + projection; the last stage owns the
// tied-embedding output head. With a single stage, both live together and
// no embedding sync is needed — exactly the paper's observation that the
// sync only exists because pipeline parallelism splits the replicas.
//
// A stage is driven by one goroutine at a time and computes out of a free
// list of its own (scratch.go). What crosses its methods is ordinary heap
// memory with the usual ownership: a matrix passed in is only borrowed —
// read, possibly until the matching backward call, never recycled — and a
// matrix returned belongs to the caller.
type Stage struct {
	Index, Total int

	Emb    *Embedding // input table (first stage) — nil otherwise
	InProj *Linear    // (C·H)→H input projection (first stage) — nil otherwise
	Blocks []*Block
	OutEmb *Embedding // tied output head replica (last stage) — nil otherwise
	OutLN  *LayerNorm // final norm before the head (last stage) — nil otherwise

	scr *scratch
}

// IsFirst reports whether this is pipeline stage 0.
func (s *Stage) IsFirst() bool { return s.Index == 0 }

// IsLast reports whether this is the final pipeline stage.
func (s *Stage) IsLast() bool { return s.Index == s.Total-1 }

// NewStages builds the model and partitions its blocks evenly across
// numStages pipeline stages. All randomness is taken from cfg.Seed so
// every data-parallel replica constructs identical weights, mirroring
// how Megatron-LM broadcasts the initial model.
func NewStages(cfg Config, numStages int) ([]*Stage, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numStages < 1 || numStages > cfg.Blocks {
		return nil, fmt.Errorf("model: numStages %d outside [1, %d blocks]", numStages, cfg.Blocks)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	emb := NewEmbedding(rng, cfg.Vocab, cfg.Hidden)
	inProj := NewLinear(rng, cfg.Context*cfg.Hidden, cfg.Hidden)
	blocks := make([]*Block, cfg.Blocks)
	for i := range blocks {
		blocks[i] = NewBlock(rng, cfg.Hidden)
	}
	outLN := NewLayerNorm(cfg.Hidden)

	stages := make([]*Stage, numStages)
	per := cfg.Blocks / numStages
	extra := cfg.Blocks % numStages
	next := 0
	for s := 0; s < numStages; s++ {
		n := per
		if s < extra {
			n++
		}
		st := &Stage{Index: s, Total: numStages, Blocks: blocks[next : next+n], scr: &scratch{}}
		next += n
		for _, b := range st.Blocks {
			b.setScratch(st.scr)
		}
		if st.IsFirst() {
			st.Emb = emb
			st.InProj = inProj
			st.Emb.scr, st.InProj.scr = st.scr, st.scr
		}
		if st.IsLast() {
			st.OutLN = outLN
			if numStages == 1 {
				st.OutEmb = emb // same table: no replica, no sync needed
			} else {
				st.OutEmb = emb.Clone()
			}
			st.OutLN.scr, st.OutEmb.scr = st.scr, st.scr
		}
		stages[s] = st
	}
	return stages, nil
}

// ForwardTokens runs the first stage on a batch of token contexts and
// returns the B×H activation to ship to the next stage.
func (s *Stage) ForwardTokens(contexts [][]int) *tensor.Matrix {
	if !s.IsFirst() {
		panic("model: ForwardTokens on non-first stage")
	}
	x := s.Emb.LookupConcat(contexts)
	return s.forwardBlocks(s.InProj.Forward(x))
}

// ForwardHidden runs a middle or last stage on the activation received
// from upstream, which stays borrowed until the matching backward call
// has returned. For the last stage the result is the pre-head hidden
// state; call Logits to finish.
func (s *Stage) ForwardHidden(h *tensor.Matrix) *tensor.Matrix {
	if s.IsFirst() {
		panic("model: ForwardHidden on first stage (use ForwardTokens)")
	}
	return s.forwardBlocks(h)
}

// forwardBlocks chains the stage's blocks. Each block borrows its input
// until its backward; backwardBlocks recycles the ones this stage made.
func (s *Stage) forwardBlocks(h *tensor.Matrix) *tensor.Matrix {
	for _, b := range s.Blocks {
		h = b.Forward(h)
	}
	return h
}

// Logits applies the final norm and tied-embedding head (last stage only).
func (s *Stage) Logits(h *tensor.Matrix) *tensor.Matrix {
	if !s.IsLast() {
		panic("model: Logits on non-last stage")
	}
	n := s.OutLN.Forward(h)
	return s.OutEmb.ProjectLogits(n)
}

// BackwardLogits backpropagates dLogits through the head and the stage's
// blocks, returning the activation gradient to ship upstream (nil when
// this stage is also the first).
func (s *Stage) BackwardLogits(dLogits *tensor.Matrix) *tensor.Matrix {
	if !s.IsLast() {
		panic("model: BackwardLogits on non-last stage")
	}
	n := s.OutEmb.hQueue.peek() // Logits' normed hidden state, dead after this
	dn := s.OutEmb.BackwardLogits(dLogits)
	s.scr.put(n)
	dh := s.OutLN.Backward(dn)
	s.scr.put(dn)
	out := s.backwardBlocks(dh)
	s.scr.put(dh)
	return out
}

// BackwardHidden backpropagates the activation gradient received from
// downstream through this stage's blocks (middle stages), or through the
// blocks + input projection + embedding (first stage, returning nil).
func (s *Stage) BackwardHidden(dh *tensor.Matrix) *tensor.Matrix {
	if s.IsLast() {
		panic("model: BackwardHidden on last stage (use BackwardLogits)")
	}
	return s.backwardBlocks(dh)
}

// backwardBlocks runs the blocks (and, on the first stage, the input
// projection and lookup) backwards from dh, which stays the caller's. On
// the way it puts back what the stage itself produced and no longer needs:
// each gradient once the layer below has consumed it, and each layer's
// forward input — the output of the layer below — once that layer's
// backward is done. The one forward input it leaves alone is a non-first
// stage's, which came from upstream.
func (s *Stage) backwardBlocks(dh *tensor.Matrix) *tensor.Matrix {
	in := dh
	for i := len(s.Blocks) - 1; i >= 0; i-- {
		b := s.Blocks[i]
		x := b.Lin.xQueue.peek()
		next := b.Backward(dh)
		if i > 0 || s.IsFirst() {
			s.scr.put(x)
		}
		if dh != in {
			s.scr.put(dh)
		}
		dh = next
	}
	if !s.IsFirst() {
		return dh
	}
	x := s.InProj.xQueue.peek()
	dx := s.InProj.Backward(dh)
	s.scr.put(x)
	s.scr.put(dh) // a block's result: every stage has at least one block
	s.Emb.BackwardLookup(dx)
	s.scr.put(dx)
	return nil
}

// Params returns all parameter matrices owned by this stage, embedding
// replicas included, in a deterministic order.
func (s *Stage) Params() []*tensor.Matrix {
	var ps []*tensor.Matrix
	if s.Emb != nil {
		ps = append(ps, s.Emb.W)
	}
	if s.InProj != nil {
		ps = append(ps, s.InProj.W, s.InProj.B)
	}
	for _, b := range s.Blocks {
		ps = append(ps, b.Params()...)
	}
	if s.OutLN != nil {
		ps = append(ps, s.OutLN.Gain, s.OutLN.Bias)
	}
	if s.OutEmb != nil && s.OutEmb != s.Emb {
		ps = append(ps, s.OutEmb.W)
	}
	return ps
}

// Grads returns the gradient matrices aligned with Params.
func (s *Stage) Grads() []*tensor.Matrix {
	var gs []*tensor.Matrix
	if s.Emb != nil {
		gs = append(gs, s.Emb.GW)
	}
	if s.InProj != nil {
		gs = append(gs, s.InProj.GW, s.InProj.GB)
	}
	for _, b := range s.Blocks {
		gs = append(gs, b.Grads()...)
	}
	if s.OutLN != nil {
		gs = append(gs, s.OutLN.GGain, s.OutLN.GBias)
	}
	if s.OutEmb != nil && s.OutEmb != s.Emb {
		gs = append(gs, s.OutEmb.GW)
	}
	return gs
}

// EmbeddingGrad returns this stage's embedding-table gradient (input table
// on the first stage, tied replica on the last), or nil when the stage
// holds no embedding. This is the tensor the §6 synchronization operates
// on.
func (s *Stage) EmbeddingGrad() *tensor.Matrix {
	if s.Emb != nil {
		return s.Emb.GW
	}
	if s.OutEmb != nil {
		return s.OutEmb.GW
	}
	return nil
}

// EmbeddingWeight returns the stage's embedding table, or nil.
func (s *Stage) EmbeddingWeight() *tensor.Matrix {
	if s.Emb != nil {
		return s.Emb.W
	}
	if s.OutEmb != nil {
		return s.OutEmb.W
	}
	return nil
}

// ZeroGrads clears all gradient accumulators (called at iteration start).
func (s *Stage) ZeroGrads() {
	for _, g := range s.Grads() {
		g.Zero()
	}
}

// ParamBytes returns the stage's parameter footprint at elemBytes width,
// for communication sizing and the Fig. 12 memory accounting.
func (s *Stage) ParamBytes(elemBytes int) int64 {
	var total int64
	for _, p := range s.Params() {
		total += p.SizeBytes(elemBytes)
	}
	return total
}
