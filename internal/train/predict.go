package train

import (
	"repro/internal/compress"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Executed-scale wire-volume predictions: sim.PredictExecution over the
// trainer's own probes. They read the compiled plan and the model's
// shapes only, never the collective runtime, so every engine and grid
// reports the same numbers, and the trace reconciliation, the autotune
// loop and the benchmark all read this one accounting.

// Probes measures the executed-scale payload sizes sim.PredictExecution
// prices this trainer's plan with.
func (t *Trainer) Probes() sim.Probes {
	return sim.Probes{
		DenseBoundaryBytes: t.DenseBoundaryBytes(),
		CBWireBytes:        t.ProbeCBWireBytes(),
		DPPayloadBytes:     t.probeDPPayloadBytes,
		EmbTableBytes:      t.replicas[0][0].EmbeddingGrad().SizeBytes(compress.ElemBytes),
	}
}

// predicted prices one iteration's executed wire volumes.
func (t *Trainer) predicted() sim.ExecutionPrediction {
	return sim.PredictExecution(t.plan, t.Probes())
}

// PredictedPPBytes prices one iteration's pipeline-parallel wire volume
// across all replicas from the compiled plan.
func (t *Trainer) PredictedPPBytes() int64 { return t.predicted().PPBytes }

// PredictedDPBytes prices one iteration's data-parallel sync wire
// volume from the plan's bucket schedule (0 when no DP sync runs).
func (t *Trainer) PredictedDPBytes() int64 { return t.predicted().DPBytes }

// PredictedEmbBytes prices one iteration's §6 embedding-sync wire
// volume from the plan's embedding strategy.
func (t *Trainer) PredictedEmbBytes() int64 { return t.predicted().EmbBytes }

// DenseBoundaryBytes returns one dense inter-stage activation or
// activation-gradient payload's size — shape-determined, so every
// boundary send of the run carries exactly this many bytes when dense.
func (t *Trainer) DenseBoundaryBytes() int64 {
	return int64(t.cfg.MicroBatch*t.cfg.Model.Hidden) * compress.ElemBytes
}

// ProbeCBWireBytes measures the wire size of one compressed backward
// payload on a compressor built from the plan's boundary spec (payload
// sizes are shape-determined, so one probe prices every send). Zero
// when backprop compression is off or there is no boundary.
func (t *Trainer) ProbeCBWireBytes() int64 {
	if !t.cfg.Opt.CompressBackprop || t.cfg.Stages < 2 {
		return 0
	}
	probe := tensor.New(t.cfg.MicroBatch, t.cfg.Model.Hidden)
	for i := range probe.Data {
		probe.Data[i] = float64(i%13) / 13
	}
	c, err := compress.Build(t.plan.CBSpec(0, 1))
	if err != nil {
		return 0 // unreachable: the spec was validated by plan.Compile
	}
	return c.Compress(probe).WireBytes()
}

// probeDPPayloadBytes measures the compressed payload size of gradient
// channel (s, gi), or 0 where the channel stays dense — the callback
// sim.PredictDPBucketBytes prices compressed channels with.
func (t *Trainer) probeDPPayloadBytes(s, gi int) int64 {
	g := t.grads[0][s][gi]
	if !t.plan.DPCompressed(s) || !compressibleShape(g) {
		return 0
	}
	probe := tensor.New(g.Rows, g.Cols)
	for i := range probe.Data {
		probe.Data[i] = float64(i%7) / 7
	}
	c, err := compress.Build(t.plan.DPSpec(s, 0, gi))
	if err != nil {
		return 0 // unreachable: the spec was validated by plan.Compile
	}
	return c.Compress(probe).WireBytes()
}
