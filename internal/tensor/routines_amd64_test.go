//go:build amd64 && !race

package tensor

import (
	"reflect"
	"testing"
)

// TestMulAdd4SelectsAVX: where AVX is usable, the "selected" path the
// oracles run (onEachPath) is the assembly routine, for every routine.
func TestMulAdd4SelectsAVX(t *testing.T) {
	if !hasAVX() {
		t.Skip("CPU or OS without AVX: the portable loops are the only path")
	}
	got, want := reflect.ValueOf(kern), reflect.ValueOf(avx)
	for i := 0; i < got.NumField(); i++ {
		if got.Field(i).Pointer() != want.Field(i).Pointer() {
			t.Errorf("AVX is available but %s is not the AVX routine", got.Type().Field(i).Name)
		}
	}
}
