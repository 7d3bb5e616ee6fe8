package train

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/compress"
	"repro/internal/tensor"
)

// Checkpointing: serialize and restore training state. Because all DP
// replicas hold identical weights (an invariant the tests assert), one
// replica's weights restore the whole trainer.
//
// Version 1 persisted weights only — which silently dropped every
// error-feedback residual (the lazy-error-propagation state of §5.1 and
// the DP-sync compressor state of §2.3) and the optimizer momentum, so a
// restored compressed run diverged from an uninterrupted one. Version 2
// persists the full resume state:
//
//	header   magic, version=2, weight-matrix count
//	weights  replica 0's parameters: rows, cols, float64 data each
//	iter     completed iteration count (restores the LR schedule position
//	         and the data-sampling stream, which LoadCheckpoint replays)
//	velocity momentum buffers of replica 0's parameters (index, matrix)
//	cb       per-(group, stage) inter-stage error-feedback residuals and
//	         PowerSGD warm-start Q factors (compressed backpropagation)
//	dpc      per-(stage, group, grad) DP-sync residuals and warm-start
//	         factors (selective stage compression)
//
// All integers are little-endian uint32, matrices are rows/cols/float64
// data. Version 1 checkpoints are still read (weights only). Restoring
// requires the same training configuration the checkpoint was written
// under; with it, a resumed run is bit-identical to an uninterrupted one
// (asserted by TestCheckpointResumeBitIdentical).

const (
	checkpointMagic   = 0x4f437043 // "OpCC"
	checkpointVersion = 2
)

func writeU32s(w io.Writer, vs ...uint32) error {
	for _, v := range vs {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func readU32s(r io.Reader, ps ...*uint32) error {
	for _, p := range ps {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return err
		}
	}
	return nil
}

func writeMat(w io.Writer, m *tensor.Matrix) error {
	if err := writeU32s(w, uint32(m.Rows), uint32(m.Cols)); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, m.Data)
}

// maxCheckpointDim bounds any dimension read from a checkpoint; a
// corrupted header must fail with an error, not a runtime panic or a
// multi-gigabyte allocation attempt. The model's largest tensors are
// orders of magnitude below this.
const maxCheckpointDim = 1 << 20

func readMat(r io.Reader) (*tensor.Matrix, error) {
	var rows, cols uint32
	if err := readU32s(r, &rows, &cols); err != nil {
		return nil, err
	}
	if rows == 0 || cols == 0 || rows > maxCheckpointDim || cols > maxCheckpointDim ||
		uint64(rows)*uint64(cols) > maxCheckpointDim*16 {
		return nil, fmt.Errorf("implausible matrix shape %dx%d", rows, cols)
	}
	m := tensor.New(int(rows), int(cols))
	if err := binary.Read(r, binary.LittleEndian, m.Data); err != nil {
		return nil, err
	}
	return m, nil
}

// flatParams returns replica d's parameters as one flat list (the
// checkpoint's matrix order).
func (t *Trainer) flatParams(d int) []*tensor.Matrix {
	var mats []*tensor.Matrix
	for _, s := range t.replicas[d] {
		mats = append(mats, s.Params()...)
	}
	return mats
}

// sortedMats returns ms sorted by shape (the deterministic serialization
// order for per-shape state collected from map-backed stores).
func sortedMats(ms []*tensor.Matrix) []*tensor.Matrix {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Rows != ms[j].Rows {
			return ms[i].Rows < ms[j].Rows
		}
		return ms[i].Cols < ms[j].Cols
	})
	return ms
}

// warmEntry is one PowerSGD warm-start factor with its input-shape key.
type warmEntry struct {
	rows, cols int
	q          *tensor.Matrix
}

func sortedWarm(c *compress.PowerSGD) []warmEntry {
	var es []warmEntry
	c.EachWarmQ(func(rows, cols int, q *tensor.Matrix) {
		es = append(es, warmEntry{rows, cols, q})
	})
	sort.Slice(es, func(i, j int) bool {
		if es[i].rows != es[j].rows {
			return es[i].rows < es[j].rows
		}
		return es[i].cols < es[j].cols
	})
	return es
}

// SaveCheckpoint writes the full training state (format above) to w.
func (t *Trainer) SaveCheckpoint(w io.Writer) error {
	mats := t.flatParams(0)
	if err := writeU32s(w, checkpointMagic, checkpointVersion, uint32(len(mats))); err != nil {
		return fmt.Errorf("train: checkpoint header: %w", err)
	}
	for i, m := range mats {
		if err := writeMat(w, m); err != nil {
			return fmt.Errorf("train: checkpoint matrix %d: %w", i, err)
		}
	}
	if err := writeU32s(w, uint32(t.iter)); err != nil {
		return fmt.Errorf("train: checkpoint iter: %w", err)
	}

	// Optimizer momentum of replica 0 (replicas hold identical state).
	var velIdx []int
	for i, p := range mats {
		if t.opt.Velocity(p) != nil {
			velIdx = append(velIdx, i)
		}
	}
	if err := writeU32s(w, uint32(len(velIdx))); err != nil {
		return fmt.Errorf("train: checkpoint velocity: %w", err)
	}
	for _, i := range velIdx {
		if err := writeU32s(w, uint32(i)); err != nil {
			return fmt.Errorf("train: checkpoint velocity %d: %w", i, err)
		}
		if err := writeMat(w, t.opt.Velocity(mats[i])); err != nil {
			return fmt.Errorf("train: checkpoint velocity %d: %w", i, err)
		}
	}

	// Inter-stage (compressed backpropagation) error-feedback state.
	type cbEntry struct {
		d, s int
		m    *tensor.Matrix
	}
	var cbRes []cbEntry
	var cbWarm []struct {
		d, s int
		e    warmEntry
	}
	for d := range t.cb {
		for s, ef := range t.cb[d] {
			if ef == nil {
				continue
			}
			var ms []*tensor.Matrix
			ef.EachResidual(func(res *tensor.Matrix) { ms = append(ms, res) })
			for _, m := range sortedMats(ms) {
				cbRes = append(cbRes, cbEntry{d, s, m})
			}
			if ps, ok := ef.Inner().(*compress.PowerSGD); ok {
				for _, e := range sortedWarm(ps) {
					cbWarm = append(cbWarm, struct {
						d, s int
						e    warmEntry
					}{d, s, e})
				}
			}
		}
	}
	if err := writeU32s(w, uint32(len(cbRes))); err != nil {
		return fmt.Errorf("train: checkpoint cb residuals: %w", err)
	}
	for _, e := range cbRes {
		if err := writeU32s(w, uint32(e.d), uint32(e.s)); err != nil {
			return fmt.Errorf("train: checkpoint cb residual: %w", err)
		}
		if err := writeMat(w, e.m); err != nil {
			return fmt.Errorf("train: checkpoint cb residual: %w", err)
		}
	}
	if err := writeU32s(w, uint32(len(cbWarm))); err != nil {
		return fmt.Errorf("train: checkpoint cb warm: %w", err)
	}
	for _, e := range cbWarm {
		if err := writeU32s(w, uint32(e.d), uint32(e.s), uint32(e.e.rows), uint32(e.e.cols)); err != nil {
			return fmt.Errorf("train: checkpoint cb warm: %w", err)
		}
		if err := writeMat(w, e.e.q); err != nil {
			return fmt.Errorf("train: checkpoint cb warm: %w", err)
		}
	}

	// DP-sync (selective stage compression) error-feedback state, keyed
	// (stage, group, grad) in table order. A compressor that has not run
	// yet holds no residual or warm factor, so it writes nothing.
	type dpcResEntry struct {
		k [3]int
		m *tensor.Matrix
	}
	var dpcRes []dpcResEntry
	var dpcWarm []struct {
		k [3]int
		e warmEntry
	}
	t.eachDPEF(func(k [3]int, ef *compress.ErrorFeedback) {
		var ms []*tensor.Matrix
		ef.EachResidual(func(res *tensor.Matrix) { ms = append(ms, res) })
		for _, m := range sortedMats(ms) {
			dpcRes = append(dpcRes, dpcResEntry{k, m})
		}
		if ps, ok := ef.Inner().(*compress.PowerSGD); ok {
			for _, e := range sortedWarm(ps) {
				dpcWarm = append(dpcWarm, struct {
					k [3]int
					e warmEntry
				}{k, e})
			}
		}
	})
	if err := writeU32s(w, uint32(len(dpcRes))); err != nil {
		return fmt.Errorf("train: checkpoint dp residuals: %w", err)
	}
	for _, e := range dpcRes {
		if err := writeU32s(w, uint32(e.k[0]), uint32(e.k[1]), uint32(e.k[2])); err != nil {
			return fmt.Errorf("train: checkpoint dp residual: %w", err)
		}
		if err := writeMat(w, e.m); err != nil {
			return fmt.Errorf("train: checkpoint dp residual: %w", err)
		}
	}
	if err := writeU32s(w, uint32(len(dpcWarm))); err != nil {
		return fmt.Errorf("train: checkpoint dp warm: %w", err)
	}
	for _, e := range dpcWarm {
		if err := writeU32s(w, uint32(e.k[0]), uint32(e.k[1]), uint32(e.k[2]),
			uint32(e.e.rows), uint32(e.e.cols)); err != nil {
			return fmt.Errorf("train: checkpoint dp warm: %w", err)
		}
		if err := writeMat(w, e.e.q); err != nil {
			return fmt.Errorf("train: checkpoint dp warm: %w", err)
		}
	}
	return nil
}

// LoadCheckpoint restores state from r into every replica. The trainer's
// configuration must match the checkpoint's. Version 1 checkpoints
// restore weights only; version 2 restores the full resume state,
// leaving the trainer bit-identical to the one that saved it.
func (t *Trainer) LoadCheckpoint(r io.Reader) error {
	var magic, version, count uint32
	if err := readU32s(r, &magic, &version, &count); err != nil {
		return fmt.Errorf("train: checkpoint header: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("train: bad checkpoint magic %#x", magic)
	}
	if version != 1 && version != checkpointVersion {
		return fmt.Errorf("train: unsupported checkpoint version %d", version)
	}
	mats := t.flatParams(0)
	if int(count) != len(mats) {
		return fmt.Errorf("train: checkpoint has %d matrices, model has %d", count, len(mats))
	}
	for i, m := range mats {
		var rows, cols uint32
		if err := readU32s(r, &rows, &cols); err != nil {
			return fmt.Errorf("train: checkpoint matrix %d: %w", i, err)
		}
		if int(rows) != m.Rows || int(cols) != m.Cols {
			return fmt.Errorf("train: checkpoint matrix %d shape %dx%d, model wants %dx%d",
				i, rows, cols, m.Rows, m.Cols)
		}
		if err := binary.Read(r, binary.LittleEndian, m.Data); err != nil {
			return fmt.Errorf("train: checkpoint matrix %d: %w", i, err)
		}
	}
	// Broadcast to all other replicas, as Megatron broadcasts initial
	// weights to every data-parallel group.
	for d := 1; d < t.cfg.DPGroups; d++ {
		for i, p := range t.flatParams(d) {
			p.CopyFrom(mats[i])
		}
	}
	if version == 1 {
		return nil
	}

	var iter uint32
	if err := readU32s(r, &iter); err != nil {
		return fmt.Errorf("train: checkpoint iter: %w", err)
	}
	t.restoreSampling(int(iter))
	// A non-fresh trainer may hold optimizer and compressor state the
	// checkpoint does not mention (momentum for parameters the saved run
	// never stepped, residuals or warm-start factors for shapes it never
	// compressed). Clear it all first so the restored trainer equals the
	// saved one exactly rather than a merge of the two runs.
	t.resetResumeState()

	var nVel uint32
	if err := readU32s(r, &nVel); err != nil {
		return fmt.Errorf("train: checkpoint velocity: %w", err)
	}
	perReplica := make([][]*tensor.Matrix, t.cfg.DPGroups)
	for d := range perReplica {
		perReplica[d] = t.flatParams(d)
	}
	for i := uint32(0); i < nVel; i++ {
		var idx uint32
		if err := readU32s(r, &idx); err != nil {
			return fmt.Errorf("train: checkpoint velocity %d: %w", i, err)
		}
		v, err := readMat(r)
		if err != nil {
			return fmt.Errorf("train: checkpoint velocity %d: %w", i, err)
		}
		if int(idx) >= len(mats) {
			return fmt.Errorf("train: checkpoint velocity index %d outside %d params", idx, len(mats))
		}
		// Replicas hold identical optimizer state (they see identical
		// synchronized gradients), so one saved buffer restores all.
		for d := range perReplica {
			t.opt.SetVelocity(perReplica[d][idx], v)
		}
	}

	var nCBRes uint32
	if err := readU32s(r, &nCBRes); err != nil {
		return fmt.Errorf("train: checkpoint cb residuals: %w", err)
	}
	for i := uint32(0); i < nCBRes; i++ {
		var d, s uint32
		if err := readU32s(r, &d, &s); err != nil {
			return fmt.Errorf("train: checkpoint cb residual %d: %w", i, err)
		}
		res, err := readMat(r)
		if err != nil {
			return fmt.Errorf("train: checkpoint cb residual %d: %w", i, err)
		}
		ef, err := t.cbFor(int(d), int(s))
		if err != nil {
			return err
		}
		ef.SetResidual(res)
	}
	var nCBWarm uint32
	if err := readU32s(r, &nCBWarm); err != nil {
		return fmt.Errorf("train: checkpoint cb warm: %w", err)
	}
	for i := uint32(0); i < nCBWarm; i++ {
		var d, s, rows, cols uint32
		if err := readU32s(r, &d, &s, &rows, &cols); err != nil {
			return fmt.Errorf("train: checkpoint cb warm %d: %w", i, err)
		}
		q, err := readMat(r)
		if err != nil {
			return fmt.Errorf("train: checkpoint cb warm %d: %w", i, err)
		}
		ef, err := t.cbFor(int(d), int(s))
		if err != nil {
			return err
		}
		ps, ok := ef.Inner().(*compress.PowerSGD)
		if !ok {
			return fmt.Errorf("train: checkpoint has PowerSGD warm state but boundary (%d,%d) runs %s", d, s, ef.Inner().Name())
		}
		ps.SetWarmQ(int(rows), int(cols), q)
	}

	var nDPRes uint32
	if err := readU32s(r, &nDPRes); err != nil {
		return fmt.Errorf("train: checkpoint dp residuals: %w", err)
	}
	for i := uint32(0); i < nDPRes; i++ {
		var s, dd, gi uint32
		if err := readU32s(r, &s, &dd, &gi); err != nil {
			return fmt.Errorf("train: checkpoint dp residual %d: %w", i, err)
		}
		res, err := readMat(r)
		if err != nil {
			return fmt.Errorf("train: checkpoint dp residual %d: %w", i, err)
		}
		ef, err := t.dpEFFor(int(s), int(dd), int(gi))
		if err != nil {
			return err
		}
		ef.SetResidual(res)
	}
	var nDPWarm uint32
	if err := readU32s(r, &nDPWarm); err != nil {
		return fmt.Errorf("train: checkpoint dp warm: %w", err)
	}
	for i := uint32(0); i < nDPWarm; i++ {
		var s, dd, gi, rows, cols uint32
		if err := readU32s(r, &s, &dd, &gi, &rows, &cols); err != nil {
			return fmt.Errorf("train: checkpoint dp warm %d: %w", i, err)
		}
		q, err := readMat(r)
		if err != nil {
			return fmt.Errorf("train: checkpoint dp warm %d: %w", i, err)
		}
		ef, err := t.dpEFFor(int(s), int(dd), int(gi))
		if err != nil {
			return err
		}
		ps, ok := ef.Inner().(*compress.PowerSGD)
		if !ok {
			return fmt.Errorf("train: checkpoint has PowerSGD warm state but DP key (%d,%d,%d) runs %s", s, dd, gi, ef.Inner().Name())
		}
		ps.SetWarmQ(int(rows), int(cols), q)
	}
	return nil
}

// resetResumeState drops every piece of mutable training state the v2
// checkpoint sections describe: optimizer momentum, error-feedback
// residuals, and PowerSGD warm-start factors, on both the inter-stage
// and the DP-sync compressors.
func (t *Trainer) resetResumeState() {
	t.opt.ResetVelocity()
	resetEF := func(ef *compress.ErrorFeedback) {
		ef.Reset()
		if ps, ok := ef.Inner().(*compress.PowerSGD); ok {
			ps.ResetWarm()
		}
	}
	for d := range t.cb {
		for _, ef := range t.cb[d] {
			if ef != nil {
				resetEF(ef)
			}
		}
	}
	t.eachDPEF(func(_ [3]int, ef *compress.ErrorFeedback) { resetEF(ef) })
}

// eachDPEF visits every DP-sync compressor in (stage, group, grad) order.
func (t *Trainer) eachDPEF(fn func(k [3]int, ef *compress.ErrorFeedback)) {
	for s, groups := range t.dpEFs {
		for dd, efs := range groups {
			for gi, ef := range efs {
				if ef != nil {
					fn([3]int{s, dd, gi}, ef)
				}
			}
		}
	}
}

// cbFor returns the inter-stage error-feedback compressor for boundary
// (d, s), erroring when the configuration has no such state (a
// checkpoint/config mismatch).
func (t *Trainer) cbFor(d, s int) (*compress.ErrorFeedback, error) {
	if d < 0 || d >= len(t.cb) || s < 0 || s >= len(t.cb[d]) || t.cb[d][s] == nil {
		return nil, fmt.Errorf("train: checkpoint carries compressed-backprop state for boundary (%d,%d) the configuration does not have", d, s)
	}
	return t.cb[d][s], nil
}

// dpEFFor returns the DP-sync compressor for a checkpoint's state key,
// erroring when the configuration has no such compressor (a
// checkpoint/config mismatch).
func (t *Trainer) dpEFFor(s, dd, gi int) (*compress.ErrorFeedback, error) {
	if s < 0 || s >= len(t.dpEFs) || dd < 0 || dd >= len(t.dpEFs[s]) ||
		gi < 0 || gi >= len(t.dpEFs[s][dd]) || t.dpEFs[s][dd][gi] == nil {
		return nil, fmt.Errorf("train: checkpoint carries DP-sync compressor state for key (%d,%d,%d) the configuration does not have", s, dd, gi)
	}
	return t.dpEFs[s][dd][gi], nil
}

// restoreSampling rewinds the trainer to iteration iter: the iteration
// counter (which also positions a warm-up LR schedule) and the data
// stream, replayed by drawing exactly the batches the saved run drew —
// sampling is the trainer's only RNG consumer, so the stream position is
// fully determined by (seed, iterations completed).
func (t *Trainer) restoreSampling(iter int) {
	cfg := t.cfg
	t.rng = rand.New(rand.NewSource(cfg.Seed))
	for it := 0; it < iter; it++ {
		for d := 0; d < cfg.DPGroups; d++ {
			for mi := 0; mi < cfg.MicroBatches; mi++ {
				t.corpus.SampleBatch(t.rng, cfg.MicroBatch, cfg.Model.Context)
			}
		}
	}
	t.iter = iter
}

// CheckpointBytes serializes the training state to a byte slice.
func (t *Trainer) CheckpointBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := t.SaveCheckpoint(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
