package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gentrius"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{0.3, 0.1, 0.2}, 0.1, 0.2, 0.3},
		{[]float64{3, 1.5, 9.25, 4, 4, 2, 8.5}, 2, 4, 8.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); !near(m, c.q2) && len(c.xs) > 2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if got := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("relIQR = %v, want 1", got)
	}
	if got := relIQR([]float64{0, 0, 0}); got != 0 {
		t.Errorf("relIQR of zeros = %v, want 0", got)
	}
}

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 0..100 = %v, want 90", got)
	}
}

func TestStandDigest(t *testing.T) {
	stand := []string{"(A,(B,(C,D)));", "(A,(C,(B,D)));", "(A,(D,(B,C)));"}
	digest := func(trees ...string) uint64 {
		var d uint64
		for _, s := range trees {
			d = digestAdd(d, treeHash([]byte(s)))
		}
		return d
	}
	a := digest(stand...)
	if b := digest(stand[2], stand[0], stand[1]); a != b {
		t.Errorf("digest depends on order: %x vs %x", a, b)
	}
	if b := digest(stand[0], stand[1]); a == b {
		t.Error("digest unchanged by a missing tree")
	}
	if b := digest(stand[0], stand[1], stand[1]); a == b {
		t.Error("digest unchanged by a repeated tree in place of another")
	}
	if b := digest(append(stand, stand[0])...); a == b {
		t.Error("digest unchanged by an extra repeated tree")
	}
}

func TestStandCheck(t *testing.T) {
	ctx := context.Background()
	ds, err := scan(ctx, 0, 7, want{minTrees: 50, maxTrees: 1_500, maxStates: 20_000, count: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := ds[0]
	// Collect the stand in-process and feed it through the gate.
	opt := gentrius.DefaultOptions()
	opt.CollectTrees = true
	res, err := gentrius.EnumerateStandContext(ctx, d.Cons, opt)
	if err != nil {
		t.Fatal(err)
	}
	trees := res.Trees
	c := newStandCheck(d)
	for _, s := range trees {
		c.add([]byte(s))
	}
	if err := c.verify(); err != nil {
		t.Fatalf("the true stand fails the gate: %v", err)
	}
	var dg digests
	if err := dg.check(c); err != nil {
		t.Fatal(err)
	}

	short := newStandCheck(d)
	for _, s := range trees[1:] {
		short.add([]byte(s))
	}
	short.add([]byte(trees[2]))
	if err := short.verify(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("a stand with a duplicate passed the gate: %v", err)
	}
	if err := dg.check(short); err == nil {
		t.Error("a different stand reproduced the digest")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	ctx := context.Background()
	w := want{minTrees: 50, maxTrees: 1_500, maxStates: 20_000, count: 2}
	a, err := scanBoth(ctx, 3, w, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scanBoth(ctx, 3, w, w)
	if err != nil {
		t.Fatal(err)
	}
	c, err := scanBoth(ctx, 4, w, w)
	if err != nil {
		t.Fatal(err)
	}
	text := func(ds []*dataset) string {
		var s strings.Builder
		for _, d := range ds {
			s.WriteString(d.Name + "\n" + strings.Join(d.Newicks, "\n") + "\n")
		}
		return s.String()
	}
	if text(a) != text(b) {
		t.Error("the same seed gave different inputs")
	}
	if text(a) == text(c) {
		t.Error("different seeds gave identical inputs")
	}
	for i := range a {
		if a[i].Trees != c[i].Trees {
			t.Errorf("%s: seeds changed the stand size: %d vs %d", a[i].Name, a[i].Trees, c[i].Trees)
		}
	}
}

func TestChromeTraceNestsPerTrack(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "client.job", Job: "j1", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "service.stream", Job: "j1", Start: at(10), End: at(90)},
		{ID: 3, Parent: 1, Name: "service.stats", Job: "j1", Start: at(80), End: at(95)},
	}
	st := selfTimes(spans)
	if st["client"] != 15*time.Millisecond || st["service"] != 95*time.Millisecond {
		t.Errorf("self times %v, want client 15ms, service 95ms", st)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, spans, t0, map[string]any{"nproc": 2}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The stats poll overlaps the stream without nesting in it, so it must
	// sit on a second track: two thread_name records for job j1.
	if n := strings.Count(string(b), `"thread_name"`); n != 2 {
		t.Errorf("%d tracks, want 2:\n%s", n, b)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
