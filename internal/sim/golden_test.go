package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// goldenPresets are optcc-sim's six -config presets, in a fixed order.
var goldenPresets = []struct {
	name string
	cfg  func() core.Config
}{
	{"baseline", core.Baseline},
	{"cb", core.CB},
	{"cbfe", core.CBFE},
	{"cbfesc", core.CBFESC},
	{"naivedp", core.NaiveDP},
	{"naivecb", core.NaiveCB},
}

// simulateGolden renders every bit Simulate and Timeline produce for the
// paper grid: %v of the iteration time and of each Exposed/Busy entry
// for both calibrated models × the six presets, then two timelines.
func simulateGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, spec := range []cluster.GPTSpec{cluster.GPT25B, cluster.GPT83B} {
		for _, p := range goldenPresets {
			sc := PaperScenario(spec, p.cfg())
			sc.Topo.Efficiency = eff(t)
			r, err := Simulate(sc)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, p.name, err)
			}
			fmt.Fprintf(&b, "%s %s iteration=%v\n", spec.Name, p.name, r.IterationSec)
			for _, l := range AllLabels {
				fmt.Fprintf(&b, "  %s exposed=%v busy=%v\n", l, r.Exposed[l], r.Busy[l])
			}
		}
	}
	for _, p := range []func() core.Config{core.Baseline, core.CBFESC} {
		sc := PaperScenario(cluster.GPT25B, p())
		sc.Topo.Efficiency = eff(t)
		tl, err := Timeline(sc, 120)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tl)
	}
	return b.String()
}

// TestSimulateGolden pins Simulate and Timeline byte-for-byte against
// recorded output. Regenerate with UPDATE_GOLDEN=1 go test ./internal/sim
// only for an intentional change to the model.
func TestSimulateGolden(t *testing.T) {
	got := simulateGolden(t)
	golden := filepath.Join("testdata", "simulate_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("Simulate/Timeline drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
