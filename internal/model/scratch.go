package model

import "repro/internal/tensor"

// scratch is one pipeline stage's free list of activation-sized matrices:
// the per-micro-batch intermediates of forward and backward (layer outputs,
// normalisation caches, tanh stashes, weight-gradient products) are taken
// from it and put back the moment they are dead, so a warmed-up stage
// computes a micro-batch without touching the allocator.
//
// It has exactly one owner. A (dp group, stage) replica is driven by one
// goroutine at a time, so there is no lock — unlike the trainer's shared
// tensor.Pool, which every rank and collective worker contends on. What it
// hands out is reused storage with arbitrary contents: callers overwrite
// every element.
//
// Ownership at the stage boundary follows from never putting back what is
// not the stage's own: a matrix that leaves the stage (a Forward*/Backward*
// result) is simply never returned, so its slot is refilled by a fresh
// allocation and the caller owns it like any other heap matrix; a matrix
// handed to the stage is only ever read. The free list therefore holds
// nothing another goroutine can see, and it stops growing once it covers
// the stage's in-flight micro-batches (1F1B bounds those by the stage
// count).
//
// A nil *scratch is valid and allocates every time — what layers built on
// their own, outside NewStages, get.
type scratch struct {
	lists []shapeList
}

// shapeList is the free matrices of one shape. A stage sees a handful of
// shapes (B×H, B×C·H, B×V, and the weight shapes), so a linear scan beats
// hashing.
type shapeList struct {
	rows, cols int
	free       []*tensor.Matrix
}

// get returns a rows×cols matrix with unspecified contents.
func (s *scratch) get(rows, cols int) *tensor.Matrix {
	if s != nil {
		for i := range s.lists {
			l := &s.lists[i]
			if l.rows != rows || l.cols != cols {
				continue
			}
			if n := len(l.free); n > 0 {
				m := l.free[n-1]
				l.free[n-1] = nil
				l.free = l.free[:n-1]
				return m
			}
			break
		}
	}
	return tensor.New(rows, cols)
}

// put makes m available to later gets. m must be the stage's own (obtained
// from get, directly or as a layer result) and must not be used afterwards.
func (s *scratch) put(m *tensor.Matrix) {
	if s == nil || m == nil {
		return
	}
	for i := range s.lists {
		if l := &s.lists[i]; l.rows == m.Rows && l.cols == m.Cols {
			l.free = append(l.free, m)
			return
		}
	}
	s.lists = append(s.lists, shapeList{rows: m.Rows, cols: m.Cols, free: []*tensor.Matrix{m}})
}

// fifo is a ring queue of per-micro-batch forward state: Forward pushes,
// the matching Backward pops, in micro-batch order. Popping advances a head
// index instead of re-slicing, so the backing array is reused and a queue
// that has reached the stage's in-flight depth never allocates again.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

func (q *fifo[T]) len() int { return q.n }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// peek returns the oldest element without removing it, or the zero value
// when the queue is empty.
func (q *fifo[T]) peek() (v T) {
	if q.n > 0 {
		v = q.buf[q.head]
	}
	return v
}

// pop removes and returns the oldest element. The queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}
