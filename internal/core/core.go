// Package core defines the Optimus-CC framework configuration: which of
// the paper's three techniques are active and with what knobs. Both the
// real trainer (internal/train) and the timing simulator (internal/sim)
// consume a core.Config, so a single configuration describes one column of
// Table 2 end to end.
//
// The three techniques (§4):
//
//   - Compressed backpropagation (CB, §5): low-rank compression of the
//     inter-stage backward traffic, protected by lazy error propagation
//     (§5.1) and epilogue-only compression (§5.2).
//   - Fused embedding synchronization (FE, §6): the two all-reduces of the
//     shared embedding table fuse into one, changing the cost from Eq. 15
//     to Eq. 16 with no mathematical effect on training.
//   - Selective stage compression (SC, §7): data-parallel gradient
//     compression restricted to the earliest (critical-path) fraction of
//     pipeline stages.
package core

import (
	"fmt"
	"sync"
)

// CBAlgorithm selects the inter-stage compressor family.
type CBAlgorithm string

// Inter-stage compressor families. The paper adopts low-rank (PowerSGD)
// and shows top-k is ill-suited to point-to-point traffic (Fig. 3,
// "Opt-CC (TopK)").
const (
	CBLowRank CBAlgorithm = "lowrank"
	CBTopK    CBAlgorithm = "topk"
)

// knownCompressors lists the compressor family names a configuration may
// reference in CBAlg or DPAlg: the built-in families (seeded here so a
// Config validates even in core-only contexts), plus every name added
// through RegisterCompressorName — compress.Register calls it, so a
// custom-registered family is immediately selectable. plan.Compile
// additionally verifies registry membership before building anything.
var (
	knownMu          sync.RWMutex
	knownCompressors = map[string]bool{
		"lowrank":  true,
		"powersgd": true,
		"topk":     true,
		"randomk":  true,
		"terngrad": true,
		"signsgd":  true,
		"uniform8": true,
		"identity": true,
	}
)

// RegisterCompressorName marks name as a valid CBAlg/DPAlg reference.
// compress.Register calls this for every registered factory; core keeps
// the list itself only because it cannot import the registry.
func RegisterCompressorName(name string) {
	if name == "" {
		return
	}
	knownMu.Lock()
	knownCompressors[name] = true
	knownMu.Unlock()
}

// KnownCompressor reports whether name is a recognized compressor family
// ("" counts: it selects the family's default).
func KnownCompressor(name string) bool {
	if name == "" {
		return true
	}
	knownMu.RLock()
	defer knownMu.RUnlock()
	return knownCompressors[name]
}

// KnownCompressors returns the recognized family names (unsorted copy).
func KnownCompressors() []string {
	knownMu.RLock()
	defer knownMu.RUnlock()
	out := make([]string, 0, len(knownCompressors))
	for n := range knownCompressors {
		out = append(out, n)
	}
	return out
}

// Config enables and parameterizes the Optimus-CC techniques.
type Config struct {
	// CompressBackprop turns on compressed backpropagation (§5).
	CompressBackprop bool
	// CBRank is the low-rank approximation rank for inter-stage traffic
	// (paper default 16; ~10× compression on transformer shapes).
	CBRank int
	// CBAlg selects the inter-stage compressor (default CBLowRank).
	CBAlg CBAlgorithm
	// LazyErrorPropagation preserves each micro-batch's compression error
	// and folds it into the next micro-batch's traffic (§5.1). Without it,
	// CB damages model quality severely (Table 4).
	LazyErrorPropagation bool
	// EpilogueOnly restricts CB to the pipeline epilogue, where the
	// communication is not hidden by compute (§5.2). The paper found CB
	// without epilogue-only compression diverges.
	EpilogueOnly bool

	// FuseEmbedding turns on fused embedding synchronization (§6).
	FuseEmbedding bool

	// SelectiveStageFraction is the fraction of pipeline stages (earliest
	// first) whose data-parallel gradients are compressed (§7). 0 disables
	// DP compression entirely; 1 compresses every stage. Paper uses 0.75.
	SelectiveStageFraction float64
	// DPRank is the low-rank rank for data-parallel gradient compression
	// (paper default 128).
	DPRank int
	// DPAlg selects the data-parallel gradient compressor family by
	// registry name ("" = "powersgd", the paper's choice). Shape-free
	// quantizers like "terngrad" are valid alternatives; plan.Compile
	// rejects families whose parameters cannot be derived from the
	// configuration.
	DPAlg string

	// Seed drives every random component (compressor sketches, data
	// order) for reproducibility.
	Seed int64
}

// Baseline returns the uncompressed Megatron-LM-equivalent configuration
// (Table 2, "Baseline").
func Baseline() Config { return Config{Seed: 1} }

// CB returns compressed backpropagation with both enabler techniques
// (Table 2, "CB").
func CB() Config {
	return Config{
		CompressBackprop:     true,
		CBRank:               16,
		CBAlg:                CBLowRank,
		LazyErrorPropagation: true,
		EpilogueOnly:         true,
		Seed:                 1,
	}
}

// CBFE returns CB plus fused embedding synchronization (Table 2,
// "CB+FE").
func CBFE() Config {
	c := CB()
	c.FuseEmbedding = true
	return c
}

// CBFESC returns the full Optimus-CC configuration (Table 2,
// "CB+FE+SC"): CB + FE + 75% selective stage compression at rank 128.
func CBFESC() Config {
	c := CBFE()
	c.SelectiveStageFraction = 0.75
	c.DPRank = 128
	return c
}

// NaiveDP returns the Fig. 3 "naive DP" straw man: data-parallel
// compression on every stage, nothing else.
func NaiveDP() Config {
	return Config{SelectiveStageFraction: 1.0, DPRank: 128, Seed: 1}
}

// NaiveCB returns the Fig. 3 "naive CB" straw man: inter-stage compression
// on all micro-batches with no lazy error propagation.
func NaiveCB() Config {
	return Config{CompressBackprop: true, CBRank: 16, CBAlg: CBLowRank, Seed: 1}
}

// Validate reports configuration errors. Both compressor references are
// validated hard: CompressBackprop with CBRank < 1 or an unrecognized
// CBAlg/DPAlg name is an error, never a silent fallback to a default
// family (plan.Compile additionally checks registry membership).
func (c Config) Validate() error {
	if c.CompressBackprop {
		if !KnownCompressor(string(c.CBAlg)) {
			return fmt.Errorf("core: unknown CB algorithm %q", c.CBAlg)
		}
		if needsCBRank(string(c.CBAlg)) && c.CBRank < 1 {
			return fmt.Errorf("core: CompressBackprop needs CBRank ≥ 1, got %d", c.CBRank)
		}
	}
	if c.SelectiveStageFraction < 0 || c.SelectiveStageFraction > 1 {
		return fmt.Errorf("core: SelectiveStageFraction %v outside [0,1]", c.SelectiveStageFraction)
	}
	if c.SelectiveStageFraction > 0 {
		if !KnownCompressor(c.DPAlg) {
			return fmt.Errorf("core: unknown DP algorithm %q", c.DPAlg)
		}
		if needsRank(c.DPAlg) && c.DPRank < 1 {
			return fmt.Errorf("core: DP compression needs DPRank ≥ 1, got %d", c.DPRank)
		}
	}
	return nil
}

// needsRank reports whether a compressor family reads the rank knob
// ("" defaults to the rank-based powersgd).
func needsRank(alg string) bool {
	switch alg {
	case "", "lowrank", "powersgd":
		return true
	}
	return false
}

// needsCBRank reports whether a CB family reads CBRank: the rank-based
// families directly, and the sparse ones through the byte-matched
// element budget (rank·(n+m) kept elements). Quantizers ignore it.
func needsCBRank(alg string) bool {
	return needsRank(alg) || alg == "topk" || alg == "randomk"
}

// DPCompress reports whether data-parallel compression is active at all.
func (c Config) DPCompress() bool { return c.SelectiveStageFraction > 0 }

// CompressedStages returns which of p pipeline stages have their DP
// traffic compressed under selective stage compression: the earliest
// ⌈fraction·p⌉ stages, because those are the ones whose DP communication
// lands on the critical path (§7, Fig. 8).
func (c Config) CompressedStages(p int) []bool {
	out := make([]bool, p)
	if !c.DPCompress() {
		return out
	}
	n := int(float64(c.SelectiveStageFraction*float64(p)) + 0.5)
	if n > p {
		n = p
	}
	for s := 0; s < n; s++ {
		out[s] = true
	}
	return out
}

// Name renders the configuration the way Table 2 labels its columns.
func (c Config) Name() string {
	if !c.CompressBackprop && !c.FuseEmbedding && !c.DPCompress() {
		return "Baseline"
	}
	name := ""
	if c.CompressBackprop {
		switch {
		case c.LazyErrorPropagation && c.EpilogueOnly:
			name = "CB"
		case !c.LazyErrorPropagation && c.EpilogueOnly:
			name = "CB(non-LEP)"
		case c.LazyErrorPropagation && !c.EpilogueOnly:
			name = "CB(all)"
		default:
			name = "CB(naive)"
		}
		if alg := string(c.CBAlg); alg != "" && alg != "lowrank" && alg != "powersgd" {
			name += "[" + alg + "]"
		}
	}
	if c.FuseEmbedding {
		if name != "" {
			name += "+"
		}
		name += "FE"
	}
	if c.DPCompress() {
		if name != "" {
			name += "+"
		}
		if c.SelectiveStageFraction < 1 {
			name += fmt.Sprintf("SC(%.0f%%)", c.SelectiveStageFraction*100)
		} else {
			name += "DP"
		}
		if c.DPAlg != "" && c.DPAlg != "powersgd" && c.DPAlg != "lowrank" {
			name += "[" + c.DPAlg + "]"
		}
	}
	return name
}
