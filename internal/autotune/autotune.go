// Package autotune searches the Optimus-CC placement space with the
// simulator as its oracle. The paper hand-picks which techniques run
// where — CB on the inter-stage backward sends, PowerSGD rank 16,
// selective stage compression on the earliest 75% of stages at rank
// 128, fused embedding sync — and Table 2 shows that choice working.
// This package treats the choice as a search problem: a Candidate
// encodes one point of the space (CB on/off + family + rank, DP-sync
// depth + family + rank, §6 embedding strategy), a Space enumerates the
// registry-backed menus, a QualityModel derived from the ablation data
// rejects candidates whose estimated quality loss exceeds the budget
// before any pricing happens, and Search prices the survivors on a
// frozen-sequence sim.Evaluator — exhaustively for small spaces, by
// seeded simulated annealing for large ones — and returns the best
// compiled plan.Plan plus a ranked candidate table.
//
// Two invariants the rest of the repo relies on:
//
//   - Determinism: the same space, quality model, and seed produce the
//     same ranked table, bit for bit (golden-tested). Enumeration order
//     is structural, the annealer's randomness comes from one seeded
//     source, and ties break on (cost, candidate key).
//   - Never price an invalid plan: every candidate passes Validate (and
//     the quality budget) before pricing, and pricing itself goes
//     through plan.Compile — a candidate the plan compiler rejects is
//     counted and skipped, never panicked on (fuzz-tested).
//
// The DP-sync bucket budget is not a dimension: the simulator prices a
// stage's DP sync as one task whatever the budget, so every candidate
// is priced, and the winner compiled, at the plan default. The search
// only searches; the executed-traffic prediction that closes the loop
// on the winner is sim.PredictExecution.
package autotune

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/compress"
	"repro/internal/core"
)

// Candidate is one point of the placement space, in canonical form
// (Normalize collapses equivalent encodings so Key is a identity).
//
// Lazy error propagation and epilogue-only compression are pinned on
// for every CB candidate: Table 4 shows training diverging without
// them, so the search never proposes the alternatives.
type Candidate struct {
	// CB turns on compressed backpropagation (§5) with the given
	// registry family; CBRank parameterizes rank-responsive families
	// (rank-based directly, sparse ones through the byte-matched budget)
	// and is 0 for quantizers.
	CB       bool
	CBFamily string
	CBRank   int

	// DPStages is the number of earliest pipeline stages whose DP-sync
	// gradients are compressed (§7's prefix rule); 0 keeps every stage
	// dense. DPFamily/DPRank parameterize the compressor.
	DPStages int
	DPFamily string
	DPRank   int

	// FuseEmbedding selects the §6 fused embedding sync (Eq. 16) over
	// the baseline two-phase form (Eq. 15).
	FuseEmbedding bool
}

// cbRankResponsive reports whether CBRank changes the family's payload:
// rank-based families directly, sparse families through the
// rank·(n+m)-element byte-matched budget. Quantizers ignore it.
func cbRankResponsive(family string) bool {
	switch family {
	case "", "lowrank", "powersgd", "topk", "randomk":
		return true
	}
	return false
}

// dpRankResponsive reports whether DPRank changes the family's payload
// (only the rank-based families; plan.Compile rejects sparse DP).
func dpRankResponsive(family string) bool {
	switch family {
	case "", "lowrank", "powersgd":
		return true
	}
	return false
}

// sparseFamily mirrors plan's rule: these families need a per-tensor
// kept fraction and are invalid for DP sync.
func sparseFamily(family string) bool { return family == "topk" || family == "randomk" }

// Normalize collapses equivalent encodings into the canonical form:
// technique-off candidates drop their family/rank fields, historical
// family aliases map to registry names, and rank-free families drop
// their rank. Key, Config, and the search all operate on the
// normalized form.
func (c Candidate) Normalize() Candidate {
	if !c.CB {
		c.CBFamily, c.CBRank = "", 0
	} else {
		if c.CBFamily == "" || c.CBFamily == "lowrank" {
			c.CBFamily = "powersgd"
		}
		if !cbRankResponsive(c.CBFamily) {
			c.CBRank = 0
		}
	}
	if c.DPStages <= 0 {
		c.DPStages, c.DPFamily, c.DPRank = 0, "", 0
	} else {
		if c.DPFamily == "" || c.DPFamily == "lowrank" {
			c.DPFamily = "powersgd"
		}
		if !dpRankResponsive(c.DPFamily) {
			c.DPRank = 0
		}
	}
	return c
}

// Validate reports whether the candidate describes a compilable plan on
// a stages-deep pipeline. Search calls it (after Normalize) before any
// pricing — a candidate that fails here is rejected, never priced.
func (c Candidate) Validate(stages int) error {
	v := c.Normalize()
	if stages < 1 {
		return fmt.Errorf("autotune: stages %d < 1", stages)
	}
	if v.CB {
		if !compress.Registered(v.CBFamily) {
			return fmt.Errorf("autotune: CB family %q not registered", v.CBFamily)
		}
		if cbRankResponsive(v.CBFamily) && v.CBRank < 1 {
			return fmt.Errorf("autotune: CB family %q needs rank ≥ 1, got %d", v.CBFamily, v.CBRank)
		}
	}
	if v.DPStages < 0 || v.DPStages > stages {
		return fmt.Errorf("autotune: DPStages %d outside [0,%d]", v.DPStages, stages)
	}
	if v.DPStages > 0 {
		if !compress.Registered(v.DPFamily) {
			return fmt.Errorf("autotune: DP family %q not registered", v.DPFamily)
		}
		if sparseFamily(v.DPFamily) {
			return fmt.Errorf("autotune: DP family %q needs a per-tensor kept fraction (invalid for DP sync)", v.DPFamily)
		}
		if dpRankResponsive(v.DPFamily) && v.DPRank < 1 {
			return fmt.Errorf("autotune: DP family %q needs rank ≥ 1, got %d", v.DPFamily, v.DPRank)
		}
	}
	return nil
}

// Config lowers the candidate onto a core.Config for a stages-deep
// pipeline. DPStages maps to the §7 prefix fraction (k/stages rounds
// back to exactly k compressed stages); LEP and epilogue-only are
// pinned on for CB candidates.
func (c Candidate) Config(stages int, seed int64) core.Config {
	v := c.Normalize()
	cfg := core.Config{Seed: seed, FuseEmbedding: v.FuseEmbedding}
	if v.CB {
		cfg.CompressBackprop = true
		cfg.CBAlg = core.CBAlgorithm(v.CBFamily)
		cfg.CBRank = v.CBRank
		cfg.LazyErrorPropagation = true
		cfg.EpilogueOnly = true
	}
	if v.DPStages > 0 {
		cfg.SelectiveStageFraction = float64(v.DPStages) / float64(stages)
		cfg.DPAlg = v.DPFamily
		cfg.DPRank = v.DPRank
	}
	return cfg
}

// Key renders the canonical candidate identity — the dedup key and the
// final deterministic tie-break of the ranked table.
func (c Candidate) Key() string {
	v := c.Normalize()
	var b strings.Builder
	if v.CB {
		fmt.Fprintf(&b, "cb=%s", v.CBFamily)
		if v.CBRank > 0 {
			fmt.Fprintf(&b, ":%d", v.CBRank)
		}
	} else {
		b.WriteString("cb=off")
	}
	if v.DPStages > 0 {
		fmt.Fprintf(&b, " dp=%d:%s", v.DPStages, v.DPFamily)
		if v.DPRank > 0 {
			fmt.Fprintf(&b, ":%d", v.DPRank)
		}
	} else {
		b.WriteString(" dp=off")
	}
	if v.FuseEmbedding {
		b.WriteString(" emb=fused")
	} else {
		b.WriteString(" emb=base")
	}
	return b.String()
}

// Space is the candidate menu the search draws from: registry family
// names and the rank grids. Stages must match the pricing
// scenario's pipeline depth.
type Space struct {
	Stages int
	// CBFamilies are the compressed-backprop families to try (CB-off is
	// always in the space); rank-responsive families sweep CBRanks.
	CBFamilies []string
	CBRanks    []int
	// DPFamilies are the DP-sync families (dense is always in the
	// space), swept over every prefix depth 1..Stages; rank-based
	// families additionally sweep DPRanks.
	DPFamilies []string
	DPRanks    []int
}

// DefaultSpace returns the search space the CLIs use: every paper
// family that the registry backs and the paper's rank neighborhoods.
func DefaultSpace(stages int) Space {
	return Space{
		Stages:     stages,
		CBFamilies: []string{"powersgd", "topk", "terngrad", "uniform8"},
		CBRanks:    []int{4, 16, 64},
		DPFamilies: []string{"powersgd", "terngrad", "uniform8"},
		DPRanks:    []int{32, 128, 512},
	}
}

// cbChoices returns the CB-dimension menu (index 0 = off).
func (sp Space) cbChoices() []Candidate {
	out := []Candidate{{}}
	for _, f := range sp.CBFamilies {
		if cbRankResponsive(f) {
			for _, r := range sp.CBRanks {
				out = append(out, Candidate{CB: true, CBFamily: f, CBRank: r})
			}
		} else {
			out = append(out, Candidate{CB: true, CBFamily: f})
		}
	}
	return out
}

// dpChoices returns the DP-dimension menu (index 0 = dense).
func (sp Space) dpChoices() []Candidate {
	out := []Candidate{{}}
	for k := 1; k <= sp.Stages; k++ {
		for _, f := range sp.DPFamilies {
			if dpRankResponsive(f) {
				for _, r := range sp.DPRanks {
					out = append(out, Candidate{DPStages: k, DPFamily: f, DPRank: r})
				}
			} else {
				out = append(out, Candidate{DPStages: k, DPFamily: f})
			}
		}
	}
	return out
}

// Enumerate lists the whole space in deterministic structural order
// (CB menu × DP menu × embedding), deduplicated by canonical key.
func (sp Space) Enumerate() []Candidate {
	var out []Candidate
	seen := make(map[string]bool)
	for _, cb := range sp.cbChoices() {
		for _, dp := range sp.dpChoices() {
			for _, fused := range []bool{false, true} {
				c := Candidate{
					CB: cb.CB, CBFamily: cb.CBFamily, CBRank: cb.CBRank,
					DPStages: dp.DPStages, DPFamily: dp.DPFamily, DPRank: dp.DPRank,
					FuseEmbedding: fused,
				}.Normalize()
				if k := c.Key(); !seen[k] {
					seen[k] = true
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// Mutate re-draws one dimension of the candidate from the space's
// menus — the annealer's proposal kernel. Every output is a normalized
// member of the space, so a valid candidate can only mutate into a
// candidate that compiles or is rejected by the quality budget, never
// into one that panics the plan compiler (fuzz-tested).
func (c Candidate) Mutate(rng *rand.Rand, sp Space) Candidate {
	v := c.Normalize()
	switch rng.Intn(3) {
	case 0:
		cb := sp.cbChoices()
		pick := cb[rng.Intn(len(cb))]
		v.CB, v.CBFamily, v.CBRank = pick.CB, pick.CBFamily, pick.CBRank
	case 1:
		dp := sp.dpChoices()
		pick := dp[rng.Intn(len(dp))]
		v.DPStages, v.DPFamily, v.DPRank = pick.DPStages, pick.DPFamily, pick.DPRank
	case 2:
		v.FuseEmbedding = !v.FuseEmbedding
	}
	return v.Normalize()
}
