package tensor

// routines are the inner loops under the matmul kernels, the elementwise
// passes and the optimizer step. Each is stated per element as a sequence
// of IEEE operations, every product rounded before it is added (written
// float64(x*y)), so that any body doing those operations on each element
// in that order gives the same bits. kern holds the bodies in use: the
// portable Go loops below, or on amd64 with AVX assembly routines that do
// the same per element four (or two) elements per instruction, a separate
// VMULPD then VADDPD for every multiply-add. Tests swap kern for portable
// to run every oracle on both. The GELU pair is the one exception: its
// tanh goes through math.Exp, which fuses on a CPU with FMA, so its AVX
// body fuses where that Exp does (routines_amd64.go).
type routines struct {
	// mulAdd4: d[j] += a0·b0[j], then a1·b1[j], a2·b2[j] and a3·b3[j],
	// against the four len(d)-long rows packed in b (len(b) = 4·len(d)).
	mulAdd4 func(d []float64, a0, a1, a2, a3 float64, b []float64)
	// addScaled: dst[j] = a[j] + s·b[j]. dst may alias a or b.
	addScaled func(dst, a []float64, s float64, b []float64)
	// add: d[j] += s[j].
	add func(d, s []float64)
	// scale: d[j] *= s.
	scale func(d []float64, s float64)
	// skinnyRows4: every k step of a matmul for each of the len(d)/w
	// w-wide rows r of d (w = 2 or 4, the row count a multiple of four),
	// d[r·w+j] += a[r·rowStride + k·stride]·b[k·w+j] for k ascending from
	// 0 to len(b)/w, skipping a zero a operand when skip is set.
	skinnyRows4 func(d []float64, w int, a []float64, rowStride, stride int, b []float64, skip bool)
	// sgdStep: e = g[j] clamped to [lo, hi] (e > hi gives hi, else e < lo
	// gives lo); then, when len(vel) > 0, e = vel[j]·mu + e, stored into
	// vel[j]; then p[j] += s·e.
	sgdStep func(p, g, vel []float64, s, mu, lo, hi float64)
	// geluForward: t[j] = GELUTanh(v[j]), then out[j] = x[j] +
	// 0.5·v[j]·(1+t[j]), the activation rounded before the add.
	geluForward func(out, t, x, v []float64)
	// geluBackward: d[j] = dy[j]·GELUGradFromTanh(v[j], t[j]).
	geluBackward func(d, dy, v, t []float64)
}

// portable is the Go body of every routine.
var portable = routines{
	mulAdd4:      mulAdd4Go,
	addScaled:    addScaledGo,
	add:          addGo,
	scale:        scaleGo,
	skinnyRows4:  skinnyRows4Go,
	sgdStep:      sgdStepGo,
	geluForward:  geluForwardGo,
	geluBackward: geluBackwardGo,
}

// kern is the set of routines the package runs, chosen once at init.
// Callers pass every slice at least as long as the one the routine walks
// (d, dst or p), resliced so that a short one fails a Go bounds check
// before an assembly body could read past it.
var kern = portable

func mulAdd4Go(d []float64, a0, a1, a2, a3 float64, b []float64) {
	p := len(d)
	// Re-sliced to len(d) so the loop carries no bounds checks.
	b0, b1, b2, b3 := b[:p], b[p:][:p], b[2*p:][:p], b[3*p:][:p]
	for j := range d {
		v := d[j]
		v += float64(a0 * b0[j])
		v += float64(a1 * b1[j])
		v += float64(a2 * b2[j])
		v += float64(a3 * b3[j])
		d[j] = v
	}
}

func addScaledGo(dst, a []float64, s float64, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for j := range dst {
		dst[j] = a[j] + float64(s*b[j])
	}
}

func addGo(d, s []float64) {
	s = s[:len(d)]
	for j := range d {
		d[j] += s[j]
	}
}

func scaleGo(d []float64, s float64) {
	for j := range d {
		d[j] *= s
	}
}

func skinnyRows4Go(d []float64, w int, a []float64, rowStride, stride int, b []float64, skip bool) {
	for r := 0; r < len(d)/w; r++ {
		skinnyRow(d[r*w:(r+1)*w], a[r*rowStride:], stride, b, skip)
	}
}

// skinnyRow is the k steps of skinnyRows4 for one row d, which it carries
// in registers from the first term to the last.
func skinnyRow(d, a []float64, stride int, b []float64, skip bool) {
	if len(d) == 2 {
		s0, s1 := d[0], d[1]
		for ai, k := 0, 0; k+2 <= len(b); ai, k = ai+stride, k+2 {
			if av := a[ai]; av != 0 || !skip {
				bk := b[k : k+2 : k+2]
				s0 += float64(av * bk[0])
				s1 += float64(av * bk[1])
			}
		}
		d[0], d[1] = s0, s1
		return
	}
	s0, s1, s2, s3 := d[0], d[1], d[2], d[3]
	for ai, k := 0, 0; k+4 <= len(b); ai, k = ai+stride, k+4 {
		if av := a[ai]; av != 0 || !skip {
			bk := b[k : k+4 : k+4]
			s0 += float64(av * bk[0])
			s1 += float64(av * bk[1])
			s2 += float64(av * bk[2])
			s3 += float64(av * bk[3])
		}
	}
	d[0], d[1], d[2], d[3] = s0, s1, s2, s3
}

func sgdStepGo(p, g, vel []float64, s, mu, lo, hi float64) {
	g = g[:len(p)]
	if len(vel) > 0 {
		vel = vel[:len(p)]
	}
	for j, e := range g {
		if e > hi {
			e = hi
		} else if e < lo {
			e = lo
		}
		if len(vel) > 0 {
			e = float64(vel[j]*mu) + e
			vel[j] = e
		}
		p[j] += float64(s * e)
	}
}

func geluForwardGo(out, t, x, v []float64) {
	t, x, v = t[:len(out)], x[:len(out)], v[:len(out)]
	for j, vj := range v {
		tj := GELUTanh(vj)
		t[j] = tj
		out[j] = x[j] + float64(0.5*vj*(1+tj))
	}
}

func geluBackwardGo(d, dy, v, t []float64) {
	dy, v, t = dy[:len(d)], v[:len(d)], t[:len(d)]
	for j, vj := range v {
		d[j] = dy[j] * GELUGradFromTanh(vj, t[j])
	}
}
