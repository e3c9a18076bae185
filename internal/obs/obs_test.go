package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Errorf("nil counter value = %d", c.Value())
	}
	g := r.Gauge("y")
	g.Set(7)
	g.SetMax(9)
	g.Add(-1)
	if g.Value() != 0 {
		t.Errorf("nil gauge value = %d", g.Value())
	}
	h := r.Histogram("z")
	h.Observe(5)
	sp := r.StartSpan("root")
	child := sp.StartSpan("child")
	child.SetAttr("k", "v")
	child.SetInt("n", 1)
	child.End()
	sp.End()
	if sp != nil || child != nil {
		t.Errorf("a nil registry opened spans")
	}
	if r.Snapshot() != nil {
		t.Errorf("nil registry snapshot should be nil")
	}
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil snapshot text: %q, %v", buf.String(), err)
	}
}

// TestRegistryMerge pins Merge against writing directly: a registry
// that takes one batch of work itself and another through a merged
// side registry ends up where a registry that took both batches itself
// does — counters summed, gauges at the higher level, histograms summed
// bucket by bucket with the larger max.
func TestRegistryMerge(t *testing.T) {
	first := func(r *Registry) {
		r.Counter("c").Add(5)
		r.Gauge("peak").SetMax(8)
		r.Histogram("h").Observe(3)
		r.Histogram("h").ObserveExemplar(40, "old")
	}
	second := func(r *Registry) {
		r.Counter("c").Add(2)
		r.Counter("fresh").Inc()
		r.Gauge("peak").SetMax(4)
		r.Gauge("other").SetMax(6)
		r.Histogram("h").Observe(3)
		r.Histogram("h").ObserveExemplar(1000, "new")
	}
	direct := New()
	first(direct)
	second(direct)

	merged, side := New(), New()
	first(merged)
	second(side)
	merged.Merge(side)
	merged.Merge(nil)

	want, got := direct.Snapshot(), merged.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged snapshot\n%+v\nwant\n%+v", got, want)
	}
}

// TestConcurrentUpdates hammers one counter, gauge and histogram, and
// one span's children, from many goroutines; run under -race this is
// the data-race guard for the whole instrument set.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	const workers = 16
	const perWorker = 1000
	root := r.StartSpan("root")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared.counter")
			g := r.Gauge("shared.gauge")
			h := r.Histogram("shared.hist")
			sp := root.StartSpan("shared.span")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(int64(w*perWorker + i))
				h.Observe(int64(i))
				sp.SetInt("i", int64(i))
			}
			sp.End()
		}(w)
	}
	wg.Wait()
	root.End()
	s := r.Snapshot()
	if got := s.Counters["shared.counter"]; got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := s.Gauges["shared.gauge"]; got != workers*perWorker-1 {
		t.Errorf("gauge high-water = %d, want %d", got, workers*perWorker-1)
	}
	h := s.Histograms["shared.hist"]
	if h.Count != workers*perWorker || h.Max != perWorker-1 {
		t.Errorf("hist count=%d max=%d", h.Count, h.Max)
	}
	var total int64
	for _, b := range h.Buckets {
		total += b.Count
	}
	if total != h.Count {
		t.Errorf("bucket sum %d != count %d", total, h.Count)
	}
	if len(root.Children) != workers {
		t.Errorf("got %d child spans, want %d", len(root.Children), workers)
	}
	if len(s.Spans) != 0 {
		t.Errorf("the registry kept %d spans", len(s.Spans))
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1000} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 8 || s.Sum != 1025 || s.Max != 1000 {
		t.Fatalf("snapshot %+v", s)
	}
	// Buckets: le=0 {0}, le=1 {1}, le=3 {2,3}, le=7 {4,7}, le=15 {8},
	// le=1023 {1000}.
	want := []Bucket{{Le: 0, Count: 1}, {Le: 1, Count: 1}, {Le: 3, Count: 2},
		{Le: 7, Count: 2}, {Le: 15, Count: 1}, {Le: 1023, Count: 1}}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Errorf("buckets = %+v, want %+v", s.Buckets, want)
	}
}

func TestSpanNesting(t *testing.T) {
	r := New()
	root := r.StartSpan("root")
	root.SetAttr("engine", "chase")
	a := root.StartSpan("a")
	aa := a.StartSpan("aa")
	aa.End()
	a.End()
	b := root.StartSpan("b")
	b.SetInt("tuples", 42)
	b.End()
	root.End()

	if root.Name != "root" || root.Running || len(root.Children) != 2 {
		t.Fatalf("root span %+v", root)
	}
	if root.Children[0].Name != "a" || len(root.Children[0].Children) != 1 ||
		root.Children[0].Children[0].Name != "aa" {
		t.Errorf("nesting wrong: %+v", root.Children[0])
	}
	if root.Children[1].Name != "b" || len(root.Children[1].Attrs) != 1 ||
		root.Children[1].Attrs[0] != (Attr{"tuples", "42"}) {
		t.Errorf("attrs wrong: %+v", root.Children[1])
	}
	if root.DurationNS < root.Children[0].DurationNS {
		t.Errorf("parent duration %d < child duration %d", root.DurationNS, root.Children[0].DurationNS)
	}
	// A span reports running until End; a second End keeps the first
	// duration.
	open := r.StartSpan("open")
	if !open.Running || open.DurationNS != 0 {
		t.Errorf("open span %+v", open)
	}
	open.End()
	d := open.DurationNS
	open.End()
	if open.Running || open.DurationNS != d {
		t.Errorf("ended span %+v, want running=false and duration %d", open, d)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("chase.rounds").Add(14)
	r.Counter("ind.expanded").Add(3)
	r.Gauge("ind.frontier_peak").SetMax(9)
	r.Histogram("ind.chain_length").Observe(14)
	root := r.StartSpan("core.query")
	root.SetAttr("engine", "ind")
	child := root.StartSpan("ind.decide")
	child.SetInt("visited", 9)
	child.End()
	root.End()

	snap := r.Snapshot()
	snap.Spans = []*Span{root}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := buf.String()
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := back.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("round trip mismatch:\n%s\n%s", want, buf.String())
	}
	if got := back.Spans[0].Children[0]; got.Name != "ind.decide" || got.Attrs[0] != (Attr{"visited", "9"}) {
		t.Errorf("decoded child span %+v", got)
	}
}

func TestWriteText(t *testing.T) {
	r := New()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("g").Set(5)
	r.Histogram("h").Observe(3)
	sp := r.StartSpan("root")
	sp.StartSpan("child").End()
	sp.End()
	snap := r.Snapshot()
	snap.Spans = []*Span{sp}
	var buf bytes.Buffer
	if err := snap.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"counters:", "a.count", "b.count", "gauges:", "histograms:", "spans:", "root", "child"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Sorted: a.count before b.count.
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Errorf("counters not sorted:\n%s", out)
	}
}
