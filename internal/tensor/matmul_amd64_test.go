//go:build amd64 && !race

package tensor

import (
	"reflect"
	"testing"
)

// TestMulAdd4SelectsAVX: where AVX is usable, the "selected" path the
// kernel oracles run (onEachPath) is the assembly routine.
func TestMulAdd4SelectsAVX(t *testing.T) {
	if !hasAVX() {
		t.Skip("CPU or OS without AVX: the portable loop is the only path")
	}
	if reflect.ValueOf(mulAdd4).Pointer() != reflect.ValueOf(mulAdd4AVX).Pointer() {
		t.Fatal("AVX is available but mulAdd4 is not the AVX routine")
	}
}
