//go:build race

package collective

// raceEnabled reports a -race build, in which sync.Pool drops a random
// share of Puts, so pooled paths do not reach a steady allocation count.
const raceEnabled = true
