package model

import (
	"fmt"
	"math"
)

// Learning-rate schedules. Large-model pretraining (and the paper's §9.1
// setup, with its 30K warm-up iterations) never runs at a constant LR;
// the trainer accepts any LRSchedule.

// LRSchedule maps an iteration index (0-based) to a learning rate.
type LRSchedule interface {
	LR(iter int) float64
}

// WarmupCosine is the GPT-2/Megatron schedule: linear warmup from 0 to
// Peak over Warmup iterations, then cosine decay to Floor at Total.
type WarmupCosine struct {
	Peak   float64
	Floor  float64
	Warmup int
	Total  int
}

// NewWarmupCosine validates and returns the schedule.
func NewWarmupCosine(peak, floor float64, warmup, total int) (*WarmupCosine, error) {
	switch {
	case peak <= 0:
		return nil, fmt.Errorf("model: peak LR %v <= 0", peak)
	case floor < 0 || floor > peak:
		return nil, fmt.Errorf("model: floor LR %v outside [0, peak]", floor)
	case warmup < 0 || total <= warmup:
		return nil, fmt.Errorf("model: warmup %d / total %d invalid", warmup, total)
	}
	return &WarmupCosine{Peak: peak, Floor: floor, Warmup: warmup, Total: total}, nil
}

// LR implements LRSchedule.
func (s *WarmupCosine) LR(iter int) float64 {
	if iter < s.Warmup {
		return s.Peak * float64(iter+1) / float64(s.Warmup)
	}
	if iter >= s.Total {
		return s.Floor
	}
	progress := float64(iter-s.Warmup) / float64(s.Total-s.Warmup)
	return s.Floor + float64((s.Peak-s.Floor)*0.5*(1+math.Cos(math.Pi*progress)))
}
