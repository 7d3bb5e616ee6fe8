package main

import (
	"fmt"
	"math/rand"

	"repro/internal/data"
	"repro/internal/tensor"
)

// Every input a workload feeds the program is made here, from the workload
// seed alone and before any timing starts: the training corpus, the
// collective workload's tensors, and the serving workload's request stream.

// genCorpus builds the synthetic training corpus for a model vocabulary.
func genCorpus(seed int64, vocab int) (*data.Corpus, error) {
	cfg := data.DefaultConfig()
	cfg.Vocab = vocab
	cfg.Seed = seed
	return data.Generate(cfg)
}

// genTensors returns n deterministic rows×cols matrices of unit normals.
func genTensors(seed int64, n, rows, cols int) []*tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Matrix, n)
	for i := range out {
		out[i] = tensor.RandN(rng, rows, cols, 1)
	}
	return out
}

// cloneTensors deep-copies a tensor list.
func cloneTensors(src []*tensor.Matrix) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(src))
	for i, m := range src {
		out[i] = m.Clone()
	}
	return out
}

// Serving request stream. The hot set is hotPresets × hotBuckets plans
// that stay in the service's plan-keyed cache; a miss is a plan no earlier
// request named (random ranks, a bucket budget used once), so it forces a
// plan compile and a pricing.
var (
	hotPresets = []string{"baseline", "cbfe", "cbfesc"}
	hotBuckets = []int64{1 << 20, 2 << 20, 3 << 20, 4 << 20, 6 << 20, 8 << 20, 12 << 20, 16 << 20}
)

const (
	// missPerMille is the share of requests that name a never-seen plan.
	missPerMille = 100
	// missBucketBase keeps the one-shot bucket budgets clear of the hot set's.
	missBucketBase = 32 << 20
)

// hotPlan is one hot-set entry: the request body and the plan it names.
type hotPlan struct {
	preset string
	bucket int64
	body   []byte
}

func genHotSet() []hotPlan {
	var hot []hotPlan
	for _, p := range hotPresets {
		for _, b := range hotBuckets {
			hot = append(hot, hotPlan{
				preset: p,
				bucket: b,
				body:   []byte(fmt.Sprintf(`{"config":{"preset":%q},"bucket_bytes":%d}`, p, b)),
			})
		}
	}
	return hot
}

// requestStream is one client's pre-generated closed-loop request
// sequence: order[i] ≥ 0 names hot-set entry order[i]; order[i] < 0 names
// miss body −order[i]−1.
type requestStream struct {
	order []int32
	miss  [][]byte
	next  int // the first request not yet sent
}

// genRequestStream draws n requests for client c of a run. Miss plans are
// unique across clients (the client index is folded into the bucket
// budget), so no miss is ever answered from another client's pricing.
func genRequestStream(seed int64, client, clients, n int) *requestStream {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	rs := &requestStream{order: make([]int32, n)}
	nHot := len(hotPresets) * len(hotBuckets)
	for i := range rs.order {
		if rng.Intn(1000) >= missPerMille {
			rs.order[i] = int32(rng.Intn(nHot))
			continue
		}
		k := len(rs.miss)
		bucket := int64(missBucketBase) + int64(k*clients+client)*4096
		rs.miss = append(rs.miss, []byte(fmt.Sprintf(
			`{"config":{"preset":"cbfesc","cb_rank":%d,"dp_rank":%d},"bucket_bytes":%d}`,
			1+rng.Intn(32), 1+rng.Intn(256), bucket)))
		rs.order[i] = int32(-k - 1)
	}
	return rs
}

// body returns request i's body.
func (rs *requestStream) body(i int, hot []hotPlan) []byte {
	if o := rs.order[i]; o >= 0 {
		return hot[o].body
	}
	return rs.miss[-rs.order[i]-1]
}
