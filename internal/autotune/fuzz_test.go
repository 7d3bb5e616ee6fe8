package autotune

import (
	"math/rand"
	"testing"

	"repro/internal/plan"
)

// fuzzFamilies includes valid registry names, aliases, the sparse
// families (invalid for DP), and garbage.
var fuzzFamilies = []string{
	"", "lowrank", "powersgd", "topk", "randomk",
	"terngrad", "signsgd", "uniform8", "identity", "bogus", "POWERSGD",
}

// FuzzCandidateMutation drives the encoder/mutator contract the search
// relies on: an arbitrary candidate either fails Validate (rejected
// before pricing) or lowers to a core.Config that plan.Compile accepts;
// and every Mutate of a valid candidate stays valid and compilable.
// Nothing in the pipeline may panic.
func FuzzCandidateMutation(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0), int16(16), uint8(2), int16(128), uint8(2), false)
	f.Add(int64(9), uint8(10), uint8(3), int16(-4), uint8(4), int16(0), uint8(9), true)
	f.Add(int64(42), uint8(0), uint8(9), int16(32767), uint8(10), int16(1), uint8(200), false)
	f.Fuzz(func(t *testing.T, seed int64, steps, cbFam uint8, cbRank int16, dpFam uint8, dpRank int16, dpStages uint8, fuse bool) {
		stages := 1 + int(seed&3)
		c := Candidate{
			CB:       cbFam%2 == 0,
			CBFamily: fuzzFamilies[int(cbFam)%len(fuzzFamilies)],
			CBRank:   int(cbRank),
			DPStages: int(dpStages) - 8, // exercise negatives and > stages
			DPFamily: fuzzFamilies[int(dpFam)%len(fuzzFamilies)],
			DPRank:   int(dpRank),

			FuseEmbedding: fuse,
		}
		grid := fuzzGrid(stages, 0)
		check := func(c Candidate) bool {
			// Normalize/Key/Validate must never panic, whatever the input.
			c = c.Normalize()
			_ = c.Key()
			if c.Validate(stages) != nil {
				return false // rejected before pricing — the allowed outcome
			}
			cfg := c.Config(stages, 1)
			if _, err := plan.Compile(cfg, grid); err != nil {
				t.Fatalf("candidate %s passed Validate but failed Compile: %v", c.Key(), err)
			}
			return true
		}
		check(c)

		// Mutations of a valid candidate must stay compilable-or-rejected;
		// mutations drawn from the space must in fact always validate.
		sp := DefaultSpace(stages)
		rng := rand.New(rand.NewSource(seed))
		m := Candidate{} // dense: always valid
		for i := 0; i < int(steps%16); i++ {
			m = m.Mutate(rng, sp)
			if !check(m) {
				t.Fatalf("mutation %s drawn from the space failed Validate", m.Key())
			}
		}
	})
}
