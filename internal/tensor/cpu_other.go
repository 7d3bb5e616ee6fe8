//go:build !amd64

package tensor

// HostFMA reports false: off amd64 the standard library's math.Exp has
// no CPU-dependent path.
func HostFMA() bool { return false }
