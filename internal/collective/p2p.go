package collective

import (
	"repro/internal/compress"
	"repro/internal/tensor"
)

// Point-to-point primitives: the executable counterpart of the pipeline-
// parallel inter-stage transfers (§5). A forward activation or backward
// activation-gradient is shipped from one rank to its pipeline neighbour
// over the transport's point-to-point queue, which both moves the tensor
// (ownership transfers to the receiver) and accounts the wire traffic —
// bytes, one message, one latency-bearing step — on the link class.

// Send ships t from rank `from` to rank `to` on class c at dense wire
// width. Ownership of t transfers to the receiver: the sender must not
// mutate it afterwards (the channel handoff is the happens-before edge
// that makes the receiver's reads race-free).
func (r *Runtime) Send(c Class, from, to int, t *tensor.Matrix) {
	r.tr.SendP2P(c, from, to, Msg{Bytes: t.SizeBytes(compress.ElemBytes), Part: Part{Payload: t}})
}

// SendCompressed compresses t through ef — the per-boundary error-
// feedback compressor whose residual is the paper's lazy error
// propagation (§5.1) — and ships the result to the receiver, accounting
// only the payload's wire bytes. In process the dense reconstruction
// travels, in a buffer borrowed from the runtime's pool; over a remote
// transport the payload travels in its compact exact form (see
// wirePart — a low-rank payload as its factor pair), encoded straight
// from the compressor's scratch. Either way Recv hands the receiver the
// same pooled dense tensor, which it must Put back once consumed. The
// second return value is ef's own reconstruction scratch (valid until
// ef's next same-shape compression), exposed so callers can record
// compression statistics without recomputing it.
func (r *Runtime) SendCompressed(c Class, from, to int, t *tensor.Matrix, ef *compress.ErrorFeedback) (wire int64, recon *tensor.Matrix) {
	pl, recon := ef.CompressWithFeedback(t)
	wire = pl.WireBytes()
	if r.remote {
		r.tr.SendP2P(c, from, to, Msg{Bytes: wire, Part: wirePart(pl, recon), Pooled: true})
		return wire, recon
	}
	ship := r.pool.GetUninit(recon.Rows, recon.Cols) // CopyFrom writes every element
	ship.CopyFrom(recon)
	r.tr.SendP2P(c, from, to, Msg{Bytes: wire, Part: Part{Payload: ship}, Pooled: true})
	return wire, recon
}

// SendCompressedSparse is the sparse-native twin of SendCompressed for
// sparse-marker families (TopK/RandomK): the compressed index/value
// payload ships as-is — no dense reconstruction is built on the send
// side, so the sender's cost scales with nnz beyond the selection pass.
// ok = false (nothing sent, no state touched) when ef's family is not
// sparse-native; callers fall back to SendCompressed. The error-feedback
// residual evolves bit-identically to the dense path, and Recv densifies
// the payload into a pooled buffer bit-identical to the reconstruction
// SendCompressed would have shipped.
func (r *Runtime) SendCompressedSparse(c Class, from, to int, t *tensor.Matrix, ef *compress.ErrorFeedback) (wire int64, ok bool) {
	pl, ok := ef.CompressWithFeedbackSparse(t)
	if !ok {
		return 0, false
	}
	wire = pl.WireBytes()
	ship := &pl.Sparse
	if !r.remote {
		// The payload aliases ef's scratch; hand over a pooled copy (the
		// SendCompressed precedent), which Recv returns to the pool. A
		// remote transport has encoded it by the time SendP2P returns.
		ship = r.pool.GetSparse(t.Rows, t.Cols)
		ship.CopyFrom(&pl.Sparse)
	}
	r.tr.SendP2P(c, from, to, Msg{Bytes: wire, Part: Part{Sparse: ship}})
	return wire, true
}

// Recv blocks until the next point-to-point tensor from rank `from`
// arrives at rank `to` on class c. pooled reports that the tensor was
// borrowed from the runtime's pool (a SendCompressed reconstruction) and
// must be returned with Pool().Put once consumed. A payload that
// travelled in compact form — sparse index/value pairs, low-rank factors
// — is expanded here into a pooled buffer: receivers see the identical
// dense tensor whichever path and transport sent it.
func (r *Runtime) Recv(c Class, to, from int) (m *tensor.Matrix, pooled bool) {
	msg := r.tr.RecvP2P(c, to, from)
	switch {
	case msg.Sparse != nil:
		dst := r.pool.GetUninit(msg.Sparse.Rows, msg.Sparse.Cols)
		msg.Sparse.DensifyInto(dst)
		r.pool.PutSparse(msg.Sparse)
		return dst, true
	case msg.P != nil:
		dst := r.reconstruct(msg.Part)
		r.pool.Put(msg.P)
		r.pool.Put(msg.Q)
		return dst, true
	}
	return msg.Payload, msg.Pooled
}

// reconstruct multiplies a factor pair back out into a pooled buffer
// with the kernel PowerSGD.DecompressInto runs on the sender — a
// stateless function of the factors' float64 bits, which the frame
// carried exactly, so the result is the sender's reconstruction bit for
// bit.
func (r *Runtime) reconstruct(p Part) *tensor.Matrix {
	dst := r.pool.GetUninit(p.P.Rows, p.Q.Rows) // the kernel writes every element
	tensor.MatMulBTInto(dst, p.P, p.Q)
	return dst
}
