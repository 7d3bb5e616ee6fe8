package model

import (
	"math"

	"repro/internal/tensor"
)

// CrossEntropy computes the mean negative log-likelihood of targets under
// softmax(logits), and the gradient dLogits = (softmax − onehot)/B. The
// 1/B factor makes micro-batch gradient accumulation average-preserving.
func CrossEntropy(logits *tensor.Matrix, targets []int) (loss float64, dLogits *tensor.Matrix) {
	b := logits.Rows
	if len(targets) != b {
		panic("model: CrossEntropy target/batch mismatch")
	}
	dLogits = tensor.New(b, logits.Cols)
	invB := 1 / float64(b)
	for i := 0; i < b; i++ {
		row := logits.Row(i)
		lse := tensor.LogSumExpRow(row)
		loss += lse - row[targets[i]]
		drow := dLogits.Row(i)
		for j, v := range row {
			drow[j] = math.Exp(v-lse) * invB
		}
		drow[targets[i]] -= invB
	}
	return loss * invB, dLogits
}

// Perplexity converts a mean cross-entropy (nats) into perplexity, the
// validation metric of Table 2 and Fig. 9.
func Perplexity(meanLoss float64) float64 { return math.Exp(meanLoss) }

// SGD is the optimizer used by the reproduction: momentum SGD with
// gradient clipping. Each data-parallel replica applies the identical
// update to its identical weights, so replicas stay synchronized bit-for-
// bit given identical (averaged) gradients.
type SGD struct {
	LR       float64
	Momentum float64
	Clip     float64 // element-wise clip on the (averaged) gradient; 0 = off
	velocity map[*tensor.Matrix]*tensor.Matrix
}

// NewSGD returns a momentum-SGD optimizer.
func NewSGD(lr, momentum, clip float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, Clip: clip, velocity: make(map[*tensor.Matrix]*tensor.Matrix)}
}

// Step applies one update: p ← p − lr·v where v ← μ·v + g. The gradient
// matrices are not modified: clipping, the momentum update and the
// parameter update are applied element by element in one pass
// (tensor.SGDStep: the same operations, each rounded on its own, as
// clipping a copy of g and then scaling, adding and axpy-ing whole
// matrices).
func (o *SGD) Step(params, grads []*tensor.Matrix) {
	if len(params) != len(grads) {
		panic("model: SGD params/grads length mismatch")
	}
	for i, p := range params {
		g := grads[i]
		var vel *tensor.Matrix
		if o.Momentum > 0 {
			vel = o.velocity[p]
			if vel == nil {
				vel = tensor.New(g.Rows, g.Cols)
				o.velocity[p] = vel
			}
		}
		tensor.SGDStep(p, g, vel, -o.LR, o.Momentum, o.Clip)
	}
}

// Velocity returns p's momentum buffer, or nil before the first
// momentum-bearing Step. The returned matrix is live optimizer state.
func (o *SGD) Velocity(p *tensor.Matrix) *tensor.Matrix { return o.velocity[p] }

// ResetVelocity drops every momentum buffer. Checkpoint restore clears
// the optimizer before installing the saved buffers, so state the
// checkpoint does not mention cannot leak into the restored run.
func (o *SGD) ResetVelocity() { clear(o.velocity) }

// SetVelocity installs a copy of v as p's momentum buffer. Checkpoint
// restore uses this so a resumed run's updates continue from the saved
// optimizer state instead of zero momentum.
func (o *SGD) SetVelocity(p, v *tensor.Matrix) {
	cur := o.velocity[p]
	if cur == nil || cur.Rows != v.Rows || cur.Cols != v.Cols {
		cur = tensor.New(v.Rows, v.Cols)
		o.velocity[p] = cur
	}
	cur.CopyFrom(v)
}
