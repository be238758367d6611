package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"gentrius"
)

// The count-corpus workload is the paper's headline computation: count the
// stand of every dataset of a fixed corpus through the public API, serially
// and with two workers. Both regimes of internal/gen are mixed so stand
// shapes vary; the small members keep terrace construction a real share of
// the two-thread time. It never materializes a tree. The corpus has an odd
// number of members, so the median call latency falls inside one member's
// samples rather than on the edge between two.
var (
	corpusSim = want{minTrees: 1_000, maxTrees: 100_000, maxStates: 30_000, count: 5}
	corpusEmp = want{minTrees: 1_000, maxTrees: 100_000, maxStates: 30_000, count: 4}
)

func runCountCorpus(ctx context.Context, e *env) error {
	var corpus []*dataset
	var setups []float64
	for i := 0; i < e.setupReps(); i++ {
		t0 := time.Now()
		c, err := scanBoth(ctx, e.seed, corpusSim, corpusEmp)
		if err != nil {
			return err
		}
		// Warm-up: one call per engine on the smallest member.
		small := c[0]
		for _, d := range c {
			if d.Trees < small.Trees {
				small = d
			}
		}
		for _, th := range []int{1, 2} {
			if _, err := countOnce(ctx, nil, 0, small, th); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		corpus = c
	}
	e.note("datasets %s", describe(corpus))

	runtime.GC() // start measuring from the same heap whatever set-up left
	if !e.trace {
		rss := sampleRSS(os.Getpid())
		l := countLoop(ctx, e, nil, corpus, e.seconds)
		e.setPeakRSS(os.Getpid(), rss.stop())
		e.set("setup_s", median(setups), "s")
		e.set("count_t1_s", median(l.t1), "s")
		e.set("count_t2_s", median(l.t2), "s")
		e.setJobLatency(l.jobs)
		e.set("first_tree_s", median(l.first), "s")
		var trees int64
		for _, d := range corpus {
			trees += d.Trees
		}
		e.set("trees_per_s", float64(trees)/median(l.t2), "1/s")
		e.note("passes %d; pass seconds t1 %s; t2 %s", len(l.t1), spread(l.t1), spread(l.t2))
		return nil
	}
	var plain, traced countTimes
	for k := 0; k < overheadChunks; k++ {
		if k%2 == 0 {
			plain = plain.merge(countLoop(ctx, e, nil, corpus, e.seconds/overheadChunks))
		} else {
			traced = traced.merge(countLoop(ctx, e, e.rec, corpus, e.seconds/overheadChunks))
		}
	}
	e.setOverhead(median(plain.t1)+median(plain.t2), median(traced.t1)+median(traced.t2))
	if err := layerProbes(ctx, e, corpus, true); err != nil {
		return err
	}
	e.zeroService()
	e.zeroDist()
	return nil
}

type countTimes struct {
	t1, t2 []float64 // pass times
	jobs   []float64 // per-call latencies of the two-thread passes
	first  []float64 // per-call time to the first stand tree, serially
}

func (a countTimes) merge(b countTimes) countTimes {
	a.t1, a.t2 = append(a.t1, b.t1...), append(a.t2, b.t2...)
	a.jobs, a.first = append(a.jobs, b.jobs...), append(a.first, b.first...)
	return a
}

// countLoop repeats passes over the corpus — serial, two threads, and time
// to the first tree with the library's default (serial) options — until d
// has elapsed (at least three passes).
func countLoop(ctx context.Context, e *env, rec *recorder, corpus []*dataset, d time.Duration) countTimes {
	var ct countTimes
	start := time.Now()
	for pass := 0; pass < 3 || time.Since(start) < d; pass++ {
		if ctx.Err() != nil {
			break
		}
		for _, th := range []int{1, 2} {
			job := fmt.Sprintf("pass%d-t%d", pass, th)
			p := rec.begin("bench.pass", job, 0)
			t0 := time.Now()
			for _, ds := range corpus {
				lat, err := countOnce(ctx, rec, p, ds, th)
				e.tally.record(err)
				if th == 2 {
					ct.jobs = append(ct.jobs, lat.Seconds())
				}
			}
			el := time.Since(t0).Seconds()
			rec.end(p)
			if th == 1 {
				ct.t1 = append(ct.t1, el)
			} else {
				ct.t2 = append(ct.t2, el)
			}
		}
		p := rec.begin("bench.pass", fmt.Sprintf("pass%d-first", pass), 0)
		for _, ds := range corpus {
			lat, err := firstTree(ctx, rec, p, ds)
			e.tally.record(err)
			ct.first = append(ct.first, lat.Seconds())
		}
		rec.end(p)
	}
	return ct
}

// engineSpan names the layer a public-API call at a thread count runs in:
// one thread is the serial engine of internal/search, more is the
// work-stealing pool of internal/parallel.
func engineSpan(threads int) string {
	if threads == 1 {
		return "search.Run"
	}
	return "parallel.Run"
}

// countOnce counts ds's stand and checks the counters against the serial
// reference.
func countOnce(ctx context.Context, rec *recorder, parent int, ds *dataset, threads int) (time.Duration, error) {
	opt := gentrius.DefaultOptions()
	opt.Threads = threads
	s := rec.begin(engineSpan(threads), ds.Name, parent)
	t0 := time.Now()
	res, err := gentrius.EnumerateStandContext(ctx, ds.Cons, opt)
	lat := time.Since(t0)
	rec.end(s)
	if err != nil {
		return lat, fmt.Errorf("%s at %d threads: %w", ds.Name, threads, err)
	}
	if !res.Complete() || res.StandTrees != ds.Trees || res.IntermediateStates != ds.States || res.DeadEnds != ds.DeadEnds {
		return lat, fmt.Errorf("%s at %d threads: got %d trees, %d states, %d dead ends (stop %v), want %s",
			ds.Name, threads, res.StandTrees, res.IntermediateStates, res.DeadEnds, res.Stop, ds.counters())
	}
	return lat, nil
}

// firstTree times a call with the default (serial) options that stops at
// the first stand tree: the wait of a caller who needs one tree of the
// stand, or to know it is not empty.
func firstTree(ctx context.Context, rec *recorder, parent int, ds *dataset) (time.Duration, error) {
	opt := gentrius.DefaultOptions()
	opt.MaxTrees = 1
	s := rec.begin(engineSpan(opt.Threads), ds.Name, parent)
	t0 := time.Now()
	res, err := gentrius.EnumerateStandContext(ctx, ds.Cons, opt)
	lat := time.Since(t0)
	rec.end(s)
	if err != nil {
		return lat, fmt.Errorf("%s first tree: %w", ds.Name, err)
	}
	if res.StandTrees < 1 || res.StandTrees > ds.Trees || (res.Complete() && res.StandTrees != ds.Trees) {
		return lat, fmt.Errorf("%s first tree: got %d trees (stop %v), stand has %d", ds.Name, res.StandTrees, res.Stop, ds.Trees)
	}
	return lat, nil
}
