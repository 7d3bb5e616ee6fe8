package pipeline

// Analytic schedule metrics. These are the standard bubble-fraction
// formulas the pipeline-parallelism literature (GPipe, PipeDream,
// Megatron-LM) uses to compare schedules; the reproduction's ablation
// experiments report them next to the simulated timings.

// BubbleFraction1F1B returns the ideal pipeline-bubble fraction of the
// non-interleaved 1F1B schedule with p stages and m micro-batches:
// (p−1)/(m+p−1). The same expression governs GPipe; 1F1B's advantage is
// memory, not bubble (§2.1).
func BubbleFraction1F1B(p, m int) float64 {
	if p <= 1 {
		return 0
	}
	return float64(p-1) / float64(m+p-1)
}

// ActivationMemoryRatio1F1B returns 1F1B's peak activation memory as a
// fraction of GPipe's on stage s: 1F1B stashes min(p−s, m) micro-batches
// while GPipe stashes all m.
func ActivationMemoryRatio1F1B(p, m, s int) float64 {
	inFlight := p - s
	if inFlight > m {
		inFlight = m
	}
	return float64(inFlight) / float64(m)
}

// CommVolumePerIteration returns the number of inter-stage point-to-point
// transfers (each direction counted once) per iteration: 2·(p−1)·m.
func CommVolumePerIteration(p, m int) int {
	return 2 * (p - 1) * m
}
