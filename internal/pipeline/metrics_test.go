package pipeline

import (
	"math"
	"testing"
)

func TestBubbleFractions(t *testing.T) {
	// p=4, m=16: 1F1B bubble 3/19.
	if got := BubbleFraction1F1B(4, 16); math.Abs(got-3.0/19.0) > 1e-12 {
		t.Fatalf("1F1B bubble %v", got)
	}
	if BubbleFraction1F1B(1, 16) != 0 {
		t.Fatal("single stage has no bubble")
	}
}

func TestActivationMemoryRatio(t *testing.T) {
	// Stage 0 of a 4-stage, 16-micro 1F1B stashes 4/16 of GPipe's.
	if got := ActivationMemoryRatio1F1B(4, 16, 0); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("ratio %v", got)
	}
	// Last stage stashes only 1/16.
	if got := ActivationMemoryRatio1F1B(4, 16, 3); math.Abs(got-1.0/16) > 1e-12 {
		t.Fatalf("ratio %v", got)
	}
}

func TestCommVolumePerIteration(t *testing.T) {
	if got := CommVolumePerIteration(4, 16); got != 2*3*16 {
		t.Fatalf("volume %d", got)
	}
	if got := CommVolumePerIteration(1, 16); got != 0 {
		t.Fatalf("single stage moves %d transfers", got)
	}
}
