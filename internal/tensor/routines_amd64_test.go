//go:build amd64 && !race

package tensor

import (
	"reflect"
	"testing"
)

// TestRoutineSelection: init installs routinesFor(this CPU), whose every
// routine is the AVX one exactly when AVX is usable, except the GELU pair,
// which is the AVX one exactly when HostFMA and AVX2 both hold (math.Exp's
// fused path, and the 256-bit integer steps) and the Go body otherwise.
// So the "selected" path the oracles run (onEachPath) is the assembly
// wherever this CPU allows it.
func TestRoutineSelection(t *testing.T) {
	same := func(a, b routines, i int) bool {
		return reflect.ValueOf(a).Field(i).Pointer() == reflect.ValueOf(b).Field(i).Pointer()
	}
	gelu := map[string]bool{"geluForward": true, "geluBackward": true}
	typ := reflect.TypeOf(kern)
	want := routinesFor(hasAVX(), HostFMA() && hasAVX2())
	for i := 0; i < typ.NumField(); i++ {
		if !same(kern, want, i) {
			t.Errorf("%s is not the routine this CPU's features select", typ.Field(i).Name)
		}
	}
	asm := routines{
		mulAdd4: mulAdd4AVX, addScaled: addScaledAVX, add: addAVX, scale: scaleAVX,
		skinnyRows4: skinnyRows4AVX, sgdStep: sgdStepAVX,
		geluForward: geluForwardAVX, geluBackward: geluBackwardAVX,
	}
	for _, c := range []struct{ avxOK, fusedExp bool }{{false, false}, {true, false}, {true, true}} {
		got := routinesFor(c.avxOK, c.fusedExp)
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			wantAsm := c.avxOK && (!gelu[name] || c.fusedExp)
			if isAsm, isGo := same(got, asm, i), same(got, portable, i); isAsm != wantAsm || isGo == wantAsm {
				t.Errorf("AVX %v, AVX2 and FMA %v: %s is the assembly routine %v, want %v", c.avxOK, c.fusedExp, name, isAsm, wantAsm)
			}
		}
	}
	t.Logf("AVX %v, FMA %v, AVX2 %v", hasAVX(), HostFMA(), hasAVX2())
}
