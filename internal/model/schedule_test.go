package model

import (
	"math"
	"testing"
)

func TestWarmupCosineShape(t *testing.T) {
	s, err := NewWarmupCosine(1.0, 0.1, 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Warmup is linear and increasing.
	if s.LR(0) <= 0 || s.LR(0) >= s.LR(50) || s.LR(50) >= s.LR(99) {
		t.Fatalf("warmup not increasing: %v %v %v", s.LR(0), s.LR(50), s.LR(99))
	}
	if math.Abs(s.LR(99)-1.0) > 0.02 {
		t.Fatalf("warmup end %v not near peak", s.LR(99))
	}
	// Decay is monotone down to the floor.
	prev := s.LR(100)
	for it := 200; it < 1000; it += 100 {
		cur := s.LR(it)
		if cur > prev+1e-12 {
			t.Fatalf("cosine decay not monotone at %d", it)
		}
		prev = cur
	}
	if math.Abs(s.LR(2000)-0.1) > 1e-12 {
		t.Fatalf("past-total LR %v != floor", s.LR(2000))
	}
}

func TestWarmupCosineValidation(t *testing.T) {
	cases := []struct {
		peak, floor   float64
		warmup, total int
	}{
		{0, 0, 10, 100},
		{1, 2, 10, 100},
		{1, 0.1, 100, 50},
		{1, -0.1, 10, 100},
	}
	for i, c := range cases {
		if _, err := NewWarmupCosine(c.peak, c.floor, c.warmup, c.total); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}
