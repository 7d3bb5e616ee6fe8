// Package cluster models the hardware and parallelism topology of the
// paper's testbed (Table 1): multi-GPU nodes joined by InfiniBand, NVLink
// within a node, and the 3D-parallel mapping that places tensor-parallel
// groups inside a node and pipeline/data parallelism across nodes.
package cluster

import (
	"fmt"

	"repro/internal/simnet"
)

// Topology describes the physical cluster.
type Topology struct {
	Nodes       int
	GPUsPerNode int
	// PeakFLOPs is the per-GPU peak throughput (FLOP/s); Efficiency is the
	// achieved fraction (the simulator's single calibrated constant).
	PeakFLOPs  float64
	Efficiency float64
	Intra      simnet.Link // NVLink
	Inter      simnet.Link // InfiniBand
}

// PaperCluster returns the Table 1 testbed: 16 nodes × 8 A100, NVLink
// 600 GB/s per GPU, InfiniBand HDR 200 Gb/s per node. A100 peak is 312
// TFLOP/s (TF32/FP16 tensor core); Efficiency is calibrated by the sim
// package so the baseline GPT-2.5B run matches the paper's 14.72 days.
func PaperCluster() Topology {
	return Topology{
		Nodes:       16,
		GPUsPerNode: 8,
		PeakFLOPs:   312e12,
		Efficiency:  0.30, // placeholder; sim.Calibrate refines it
		Intra:       simnet.Link{Name: "nvlink", BandwidthBps: 600e9 * 8, LatencySec: 1e-6},
		Inter:       simnet.Link{Name: "ib-hdr", BandwidthBps: 200e9, LatencySec: 2e-6},
	}
}

// TotalGPUs returns Nodes × GPUsPerNode.
func (t Topology) TotalGPUs() int { return t.Nodes * t.GPUsPerNode }

// EffectiveFLOPs returns the achieved per-GPU throughput.
func (t Topology) EffectiveFLOPs() float64 { return t.PeakFLOPs * t.Efficiency }

// Validate reports malformed topologies.
func (t Topology) Validate() error {
	switch {
	case t.Nodes < 1:
		return fmt.Errorf("cluster: nodes %d < 1", t.Nodes)
	case t.GPUsPerNode < 1:
		return fmt.Errorf("cluster: GPUs/node %d < 1", t.GPUsPerNode)
	case t.PeakFLOPs <= 0:
		return fmt.Errorf("cluster: peak FLOPs %v <= 0", t.PeakFLOPs)
	case t.Efficiency <= 0 || t.Efficiency > 1:
		return fmt.Errorf("cluster: efficiency %v outside (0,1]", t.Efficiency)
	}
	if err := t.Intra.Validate(); err != nil {
		return err
	}
	return t.Inter.Validate()
}

// Mapping is a 3D-parallel decomposition: TP×DP×PP ways.
type Mapping struct {
	TP, DP, PP int
}

// Ways returns the total GPU count the mapping occupies.
func (m Mapping) Ways() int { return m.TP * m.DP * m.PP }

// Validate checks the mapping against a topology, enforcing the paper's
// placement rule that a tensor-parallel group fits inside one node (so TP
// traffic rides NVLink).
func (m Mapping) Validate(t Topology) error {
	switch {
	case m.TP < 1 || m.DP < 1 || m.PP < 1:
		return fmt.Errorf("cluster: mapping %+v has non-positive ways", m)
	case m.TP > t.GPUsPerNode:
		return fmt.Errorf("cluster: TP=%d exceeds %d GPUs/node (tensor groups must stay intra-node)", m.TP, t.GPUsPerNode)
	case m.Ways() > t.TotalGPUs():
		return fmt.Errorf("cluster: mapping needs %d GPUs, cluster has %d", m.Ways(), t.TotalGPUs())
	}
	return nil
}

// String renders the mapping the way the paper writes it.
func (m Mapping) String() string { return fmt.Sprintf("TP%d/DP%d/PP%d", m.TP, m.DP, m.PP) }

// GPTSpec sizes a GPT-style transformer the way the paper's Table 1 does.
type GPTSpec struct {
	Name      string
	Layers    int
	Hidden    int
	Heads     int
	SeqLen    int
	VocabSize int
}

// Paper model zoo (§9.1, §9.5, §9.7).
var (
	GPT25B  = GPTSpec{Name: "GPT-2.5B", Layers: 52, Hidden: 1920, Heads: 24, SeqLen: 1024, VocabSize: 51200}
	GPT83B  = GPTSpec{Name: "GPT-8.3B", Layers: 72, Hidden: 3072, Heads: 24, SeqLen: 1024, VocabSize: 51200}
	GPT92B  = GPTSpec{Name: "GPT-9.2B", Layers: 80, Hidden: 3072, Heads: 24, SeqLen: 1024, VocabSize: 51200}
	GPT39B  = GPTSpec{Name: "GPT-39B", Layers: 96, Hidden: 5760, Heads: 32, SeqLen: 1024, VocabSize: 51200}
	GPT175B = GPTSpec{Name: "GPT-175B", Layers: 96, Hidden: 12288, Heads: 96, SeqLen: 1024, VocabSize: 51200}
)

// ParamsPerLayer returns the parameter count of one transformer layer:
// 4H² attention (QKV+output projections) + 8H² MLP (H→4H→H) + biases and
// layer norms (≈13H per layer, negligible but counted).
func (g GPTSpec) ParamsPerLayer() int64 {
	h := int64(g.Hidden)
	return 12*h*h + 13*h
}

// EmbeddingParams returns the token-embedding table size (tied in/out).
func (g GPTSpec) EmbeddingParams() int64 {
	return int64(g.VocabSize) * int64(g.Hidden)
}

// TotalParams returns the model size, embedding counted once.
func (g GPTSpec) TotalParams() int64 {
	return int64(g.Layers)*g.ParamsPerLayer() + g.EmbeddingParams()
}

// FwdFLOPsPerLayerPerToken returns forward FLOPs for one token through one
// layer: 2 FLOPs per parameter-multiply plus the attention score terms
// (2·2·S·H per token for QKᵀ and attn·V).
func (g GPTSpec) FwdFLOPsPerLayerPerToken() float64 {
	return float64(2*float64(g.ParamsPerLayer())) + float64(4*float64(g.SeqLen)*float64(g.Hidden))
}

// ActivationBytes returns the size of the inter-stage boundary tensor for
// one micro-batch: microB × SeqLen × Hidden at elemBytes width. This is
// what compressed backpropagation shrinks.
func (g GPTSpec) ActivationBytes(microB, elemBytes int) int64 {
	return int64(microB) * int64(g.SeqLen) * int64(g.Hidden) * int64(elemBytes)
}

// LayerGradShape returns the dominant per-layer gradient matrix shape the
// compression benchmarks use (the fused MLP weight, H×4H).
func (g GPTSpec) LayerGradShape() (rows, cols int) { return g.Hidden, 4 * g.Hidden }

// Validate reports malformed specs.
func (g GPTSpec) Validate() error {
	if g.Layers < 1 || g.Hidden < 1 || g.SeqLen < 1 || g.VocabSize < 1 {
		return fmt.Errorf("cluster: invalid GPT spec %+v", g)
	}
	return nil
}
