package obs

import (
	"sync"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder([]string{"a", "b"}, 8)
	if r.Tracks() != 2 || r.Capacity() != 8 {
		t.Fatalf("tracks=%d cap=%d", r.Tracks(), r.Capacity())
	}
	start := r.Now()
	r.Record(0, PhaseFwd, LinkNone, start, 0, 3, 1, 2)
	r.RecordSpan(1, PhaseSendBwd, LinkPP, 10, 20, 512, 2, 0, 1)
	if r.Count() != 2 || r.Dropped() != 0 || r.Len(0) != 1 || r.Len(1) != 1 {
		t.Fatalf("count=%d dropped=%d", r.Count(), r.Dropped())
	}
	var got []Span
	r.EachSpan(func(track int, s Span) { got = append(got, s) })
	if len(got) != 2 {
		t.Fatalf("visited %d spans", len(got))
	}
	if got[0].Phase != PhaseFwd || got[0].Stage != 3 || got[0].DP != 1 || got[0].Micro != 2 {
		t.Fatalf("span 0 = %+v", got[0])
	}
	if got[1].Bytes != 512 || got[1].DurNs() != 10 || got[1].Link != LinkPP {
		t.Fatalf("span 1 = %+v", got[1])
	}
	if !got[1].Phase.WireBearing() || got[0].Phase.WireBearing() {
		t.Fatal("wire-bearing classification wrong")
	}
}

// TestRecorderFullTrackDropsNewest pins the overflow policy: a full
// track keeps its first `capacity` spans and discards later ones — the
// policy that lets concurrent recording stay lock-free (an overwrite
// ring would reuse slots and race).
func TestRecorderFullTrackDropsNewest(t *testing.T) {
	r := NewRecorder([]string{"t"}, 4)
	for i := 0; i < 10; i++ {
		r.RecordSpan(0, PhaseFwd, LinkNone, int64(i), int64(i)+1, 0, -1, -1, i)
	}
	if r.Count() != 10 || r.Dropped() != 6 || r.Len(0) != 4 {
		t.Fatalf("count=%d dropped=%d len=%d", r.Count(), r.Dropped(), r.Len(0))
	}
	var micros []int
	r.Spans(0, func(s Span) { micros = append(micros, int(s.Micro)) })
	want := []int{0, 1, 2, 3}
	for i, m := range micros {
		if m != want[i] {
			t.Fatalf("retained micros %v, want %v", micros, want)
		}
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Now() != 0 {
		t.Fatal("nil Now must return 0")
	}
	r.Record(0, PhaseFwd, LinkNone, 0, 0, 0, 0, 0)
	r.RecordSpan(5, PhaseBwd, LinkDP, 1, 2, 3, 4, 5, 6)
	if r.Tracks() != 0 || r.Count() != 0 || r.Dropped() != 0 || r.Capacity() != 0 || r.Len(3) != 0 {
		t.Fatal("nil recorder leaked state")
	}
	r.Spans(0, func(Span) { t.Fatal("nil recorder visited a span") })
	r.EachSpan(func(int, Span) { t.Fatal("nil recorder visited a span") })
}

func TestRecorderConcurrentRecording(t *testing.T) {
	const perG, workers = 500, 8
	r := NewRecorder([]string{"x", "y"}, perG*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				start := r.Now()
				r.Record(w%2, PhaseCollExec, LinkDP, start, 1, w, -1, i)
			}
		}(w)
	}
	wg.Wait()
	if r.Count() != perG*workers || r.Dropped() != 0 {
		t.Fatalf("count=%d dropped=%d", r.Count(), r.Dropped())
	}
	var bytes int64
	r.EachSpan(func(_ int, s Span) { bytes += s.Bytes })
	if bytes != perG*workers {
		t.Fatalf("byte sum %d, want %d", bytes, perG*workers)
	}
}

// TestRecordZeroAllocs pins the steady-state allocation contract for
// both the enabled and the disabled (nil) recorder.
func TestRecordZeroAllocs(t *testing.T) {
	r := NewRecorder([]string{"t"}, 1<<16)
	if n := testing.AllocsPerRun(1000, func() {
		start := r.Now()
		r.Record(0, PhaseFwd, LinkPP, start, 64, 1, 0, 2)
	}); n != 0 {
		t.Fatalf("enabled Record allocates %.1f/op", n)
	}
	var nilRec *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		start := nilRec.Now()
		nilRec.Record(0, PhaseFwd, LinkPP, start, 64, 1, 0, 2)
	}); n != 0 {
		t.Fatalf("disabled Record allocates %.1f/op", n)
	}
}

func BenchmarkRecordEnabled(b *testing.B) {
	r := NewRecorder([]string{"t"}, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := r.Now()
		r.Record(0, PhaseFwd, LinkPP, start, 64, 1, 0, 2)
	}
}

func BenchmarkRecordDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := r.Now()
		r.Record(0, PhaseFwd, LinkPP, start, 64, 1, 0, 2)
	}
}
