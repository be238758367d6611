package main

import (
	"context"
	"runtime"
	"time"
)

func (e *env) setupReps() int {
	if e.trace {
		return 1 // the traced run reports no setup_s
	}
	return setupReps
}

// setJobLatency sets job_p50_s and notes the sample count and the highest
// percentile with at least ten samples beyond it.
func (e *env) setJobLatency(lat []float64) {
	e.set("job_p50_s", median(lat), "s")
	if p, ok := tailPercentile(len(lat)); ok && p > 50 {
		e.note("job_p%g_s %.6f s (n=%d)", p, percentile(lat, p), len(lat))
	} else {
		e.note("job latency n=%d (too few samples for a tail percentile)", len(lat))
	}
}

// setPeakRSS sets peak_rss_mb to the 95th percentile of the resident-size
// samples of the measured phase: the level a process's memory peaks at.
// The single highest sample depends on when a Go collection happens to run
// (a daemon's samples swing between 15 and 50 MB within a second), and
// varied 30% from run to run. The kernel high-water mark is noted beside it.
func (e *env) setPeakRSS(pid int, samples []float64) {
	e.set("peak_rss_mb", percentile(samples, 95), "MB")
	hwm, _ := rssMB(pid, "VmHWM")
	e.note("rss MB: samples %s; VmHWM %.3f", spread(samples), hwm)
}

// setOverhead sets obs.trace_overhead_pct from the same end-to-end figure
// measured untraced and traced in one run.
func (e *env) setOverhead(plain, traced float64) {
	v := 0.0
	if plain > 0 {
		v = 100 * (traced - plain) / plain
	}
	e.set("obs.trace_overhead_pct", v, "%")
}

// countShare is the part of an untraced daemon run spent on in-process
// count passes.
const countShare = 0.2

// countPasses times in-process count-only passes over a daemon workload's
// datasets, the engine's share of what the daemon does for them, until d
// has elapsed (at least one pass per thread count). The callers run it
// while the daemon idles, several times across a run. The thread counts
// alternate 1, 2, 2, 1, ... so neither gets more of the passes that follow
// a job closely: with all one-thread passes first, count_t1_s read 1.3
// times its median in some runs and not in others.
func (e *env) countPasses(ctx context.Context, ds []*dataset, ls *loadStats, d time.Duration) {
	runtime.GC() // collect the finished jobs' garbage now, not during a pass
	start := time.Now()
	for n := 0; n < 1 || time.Since(start) < d; n++ {
		for _, th := range [2][2]int{{1, 2}, {2, 1}}[n%2] {
			t0 := time.Now()
			for _, dd := range ds {
				_, err := countOnce(ctx, nil, 0, dd, th)
				e.tally.record(err)
			}
			if th == 1 {
				ls.t1 = append(ls.t1, time.Since(t0).Seconds())
			} else {
				ls.t2 = append(ls.t2, time.Since(t0).Seconds())
			}
		}
	}
}

// Layers a workload does not cross read 0 in its traced run.
func (e *env) zeroService() {
	for _, n := range []string{"service.submit_ms", "service.queue_wait_ms", "service.exec_ms",
		"service.stream_tail_ms", "service.stats_ms", "service.checkpoint_ms"} {
		e.set(n, 0, "ms")
	}
	e.set("service.stream_mb_per_s", 0, "MB/s")
	e.set("service.journal_records_per_job", 0, "count/job")
}

func (e *env) zeroDist() {
	for _, n := range []string{"dist.dispatches", "dist.heartbeats", "dist.redispatches", "dist.lease_expiries"} {
		e.set(n, 0, "count/job")
	}
}
