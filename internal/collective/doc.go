// Package collective is the rank-based collective-communication runtime
// of the Optimus-CC reproduction. It gives the repo an *executable*
// counterpart to the analytic cost models in internal/simnet and
// internal/core: where simnet.Link.AllReduceTime predicts what a ring
// all-reduce costs, this package actually runs one — goroutine-per-rank,
// message-per-step — and the transport reports the bytes, messages, and
// steps that really moved, so experiments can put predicted and executed
// volume side by side (Eq. 15/16).
//
// The pieces:
//
//   - Topology maps flat ranks onto a DP×PP grid and derives the ring
//     orderings of every communication group: the per-stage data-parallel
//     groups, the per-replica pipeline groups, and the §6 fused embedding
//     group (first- and last-stage ranks of every DP replica).
//   - Transport moves messages between ranks and accounts traffic per
//     link class (ClassDP, ClassPP, ClassEmb). MemTransport is the
//     in-process implementation: one buffered channel per directed rank
//     pair, atomic counters per class, messages that are bare step tokens
//     because the data stays in shared memory. SocketTransport puts a
//     process boundary under the same schedules: every message is one
//     length-prefixed frame carrying its data as a list of payload parts
//     (see wire.go).
//   - Runtime owns one long-lived worker goroutine per rank (so steady-
//     state collectives spawn nothing and allocate nothing) plus the
//     tensor.Pool that reduction scratch comes from. Close releases the
//     workers.
//   - Group is a set of ranks in ring order bound to a link class. Its
//     unit of communication is the bucket: AllReduceBucket reduces a list
//     of tensors (Channels) as one operation. The dense channels, laid
//     end to end, ride one Thakur ring — reduce-scatter + all-gather over
//     R chunks of the concatenation, 2(R−1) steps, per-rank volume
//     2V·(R−1)/R. The compressed channels each run a compress.Compressor
//     with per-rank error feedback inside the collective — exactly the
//     semantics of per-group PowerSGD gradient averaging — and every
//     member's whole payload batch rides one ring all-gather, R−1 steps,
//     followed by a flat-order reduction per channel. AllReduce and
//     AllReduceCompressed are the bucket-of-one forms of the same
//     schedule, and Broadcast is a ring pipeline. Bucketing never
//     changes a result or the bytes moved (each chunk and each payload
//     still travels R−1 hops per phase); it divides the messages and
//     steps by the channels per bucket, which is what a latency-bound
//     link pays for.
//   - Point-to-point primitives (Runtime.Send, Recv, SendCompressed)
//     execute the pipeline-parallel inter-stage transfers of §5: a tensor
//     is handed to the neighbouring rank through a payload queue deep
//     enough for the 1F1B schedule's worst-case skew (deadlock-free by
//     construction), accounting its wire bytes, one message, and one
//     latency-bearing step on ClassPP. SendCompressed runs the boundary's
//     private error-feedback compressor — the residual is the paper's
//     lazy error propagation (§5.1) — accounting only the payload bytes;
//     what travels is the reconstruction in process and the payload's
//     compact exact form (low-rank factors, sparse pairs) over a wire,
//     and Recv hands the receiver the same dense tensor either way.
//     internal/train's 1F1B executor is built on these;
//     simnet.InterStageMessages and sim.PredictInterStage are their
//     analytic twins.
//
// # Determinism
//
// A textbook ring reduce-scatter accumulates each chunk in a rotated rank
// order (chunk c starts at rank c), so different chunks reduce in
// different orders and the result is only reproducible up to floating-
// point reassociation. This runtime deliberately trades that artifact
// away: the message count, step count, and byte accounting follow the
// ring exactly — a member sends every chunk but its own in the reduce-
// scatter phase, as the ring does — but each chunk goes straight to its
// owner, who applies the reduction in flat rank order over all R raw
// copies (read from the members' shared buffers in process, from the
// messages over a wire). Every collective is therefore bit-identical to
// the serial reference reduction at any rank count, on either transport,
// and however its tensors are bucketed — the property the trainer's
// equivalence tests pin at tolerance zero — while the transport still
// observes the Thakur ring's traffic volume. In process the happens-
// before edges that make the shared-memory reads safe are carried by
// the messages themselves, which the race-enabled tests exercise.
//
// Compressed channels are reduced the same way after their all-gather:
// every payload is folded in flat rank order, summed (dense
// reconstructions) or merge-unioned (sparse payloads, scatter-added
// past a density cap that every member decides on the channel's whole
// nnz). Who folds what depends on where the payloads are. In process
// all R are in shared memory, so the fold is split like the dense
// reduce-scatter: member m folds only chunk m of the balanced R-way
// partition the dense ring uses (cutting each sparse payload to the
// chunk by binary search on its ascending indices), then writes the
// chunk into all R members' buffers. That needs no barrier and no
// extra message: each member's first gather send follows its whole
// compression pass — its last read of its buffers — and a member's
// R−1-step gather ends after a chain of messages from every such send,
// so all reads happen-before its writes, which cover disjoint ranges.
// Over a wire each process holds one member, which folds the whole
// channel into its own buffer. Per coordinate both run the same IEEE
// addition sequence, so the results agree at tolerance zero.
//
// # Async handles
//
// Every collective also exists as an issued operation:
// AllReduceBucketAsync (and the AllReduceAsync/AllReduceCompressedAsync/
// BroadcastAsync single-tensor forms) return a *Pending handle
// immediately (Wait, Done, WaitBytes — the last also
// reporting the operation's executed wire volume, which the trainer's
// per-bucket crosschecks reconcile against plan and simulator
// predictions). The blocking methods are issue+wait wrappers, so both
// paths execute the identical deterministic schedule. Per-rank op
// queues run a group's in-flight operations in issue order on every
// member, preserving the flat-rank-order reduction with overlap; op
// descriptors are pooled, so issuing stays 0 allocs/op. This is what
// lets internal/train hide bucketed DP synchronization under the
// backward pass.
//
// # Concurrency contract
//
// Distinct Groups over disjoint rank sets may run collectives
// concurrently (the trainer fans per-stage DP groups out this way).
// A single Group's operations must all be issued from one goroutine at
// a time (in-flight operations are fine — they execute in issue
// order); two groups that share a rank must not run concurrently —
// each rank has one worker and op queues are per rank, so cross-group
// issue order would be racy.
package collective
