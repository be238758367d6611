package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// jobSpec is one daemon job of a workload.
type jobSpec struct {
	name       string // span job id
	ds         *dataset
	threads    int       // 0: the daemon's default
	due        time.Time // when the job was due to be sent
	maxTrees   int64     // a stopping rule, for warm-up jobs only
	stats      bool      // poll GET /jobs/{id}/stats beside the stream
	checkpoint bool      // POST /jobs/{id}/checkpoint while the job runs
}

// jobOutcome is what the client saw of one job. Times are absolute.
type jobOutcome struct {
	due       time.Time
	sent      time.Time // POST /jobs sent
	submitted time.Time // POST /jobs answered
	first     time.Time // first tree received
	last      time.Time // last tree received
	finished  time.Time // the daemon's finish time of the job
	trees     int64
	bytes     int64
	status    jobStatus
	queueWait float64   // seconds, from the stats after the job ended
	statsMS   []float64 // latencies of stats polls
	ckptMS    []float64 // latencies of checkpoints taken
	ckptLate  int       // checkpointed jobs that ended before a checkpoint landed
	err       error     // first failure of the job or of its gate
}

// runJob submits one job, follows its tree stream to the end, polls beside
// it as the spec asks, and applies the correctness gate. Every request is
// tallied; any failure is also returned in the outcome.
func runJob(ctx context.Context, e *env, c *client, rec *recorder, dg *digests, sp jobSpec) jobOutcome {
	o := jobOutcome{due: sp.due}
	root := rec.begin("client.job", sp.name, 0)
	defer rec.end(root)
	fail := func(err error) {
		if o.err == nil && err != nil {
			o.err = fmt.Errorf("%s (%s): %w", sp.name, sp.ds.Name, err)
		}
	}

	s := rec.begin("service.submit", sp.name, root)
	o.sent = time.Now()
	id, err := c.submit(ctx, jobRequest{Trees: sp.ds.Newicks, Threads: sp.threads, MaxTrees: sp.maxTrees})
	rec.end(s)
	o.submitted = time.Now()
	e.tally.record(err)
	if err != nil {
		fail(err)
		return o
	}

	firstSeen := make(chan struct{})
	streamed := make(chan struct{})
	var once sync.Once
	markFirst := func() { once.Do(func() { close(firstSeen) }) }
	var side sync.WaitGroup
	var mu sync.Mutex // guards o's side-request fields and o.err
	if sp.stats {
		side.Add(1)
		go func() {
			defer side.Done()
			poll := func() {
				s := rec.begin("service.stats", sp.name, root)
				t0 := time.Now()
				_, err := c.stats(ctx, id)
				el := time.Since(t0)
				rec.end(s)
				e.tally.record(err)
				mu.Lock()
				defer mu.Unlock()
				o.statsMS = append(o.statsMS, ms(el))
				fail(err)
			}
			poll()
			<-firstSeen
			poll()
		}()
	}
	if sp.checkpoint {
		side.Add(1)
		go func() {
			defer side.Done()
			// The daemon answers 409 while the job is queued and once it has
			// ended; ask again until it checkpoints the running job or the
			// stream is over.
			for {
				s := rec.begin("service.checkpoint", sp.name, root)
				t0 := time.Now()
				err := c.checkpoint(ctx, id)
				el := time.Since(t0)
				rec.end(s)
				var he *httpError
				if errors.As(err, &he) && he.code == http.StatusConflict {
					select {
					case <-streamed:
						mu.Lock()
						o.ckptLate++
						mu.Unlock()
						return
					case <-ctx.Done():
						return
					case <-time.After(ckptRetry):
						continue
					}
				}
				e.tally.record(err)
				mu.Lock()
				if err == nil {
					o.ckptMS = append(o.ckptMS, ms(el))
				}
				fail(err)
				mu.Unlock()
				return
			}
		}()
	}

	check := newStandCheck(sp.ds)
	s = rec.begin("service.stream", sp.name, root)
	st, err := c.stream(ctx, id, markFirst, check.add)
	rec.end(s)
	markFirst()
	close(streamed)
	side.Wait()
	o.first, o.last, o.trees, o.bytes = st.first, st.last, st.trees, st.bytes

	s = rec.begin("service.status", sp.name, root)
	status, serr := c.status(ctx, id)
	var stats jobStats
	if serr == nil {
		stats, serr = c.stats(ctx, id)
	}
	rec.end(s)
	o.status, o.queueWait = status, stats.QueueWaitSeconds
	if t, perr := time.Parse(time.RFC3339Nano, status.Finished); perr == nil {
		o.finished = t
	}

	v := rec.begin("client.verify", sp.name, root)
	gate := err
	if gate == nil {
		gate = serr
	}
	if gate == nil {
		gate = checkJob(sp, status, check, dg)
	}
	rec.end(v)
	e.tally.record(gate)
	mu.Lock()
	fail(gate)
	mu.Unlock()
	return o
}

// checkJob is the correctness gate of a finished job: the daemon's
// counters must equal the serial reference exactly, and the streamed stand
// must pass its stand check and reproduce the dataset's digest. A warm-up
// job stopped by a tree limit is only checked for a consistent count.
func checkJob(sp jobSpec, st jobStatus, check *standCheck, dg *digests) error {
	if st.State != "done" || st.Error != "" {
		return fmt.Errorf("job ended %q: %s", st.State, st.Error)
	}
	if sp.maxTrees > 0 {
		if check.n != st.StandTrees || check.dups > 0 {
			return fmt.Errorf("stopped job streamed %d trees (%d duplicates), reports %d", check.n, check.dups, st.StandTrees)
		}
		return nil
	}
	d := sp.ds
	if !st.Complete || st.StandTrees != d.Trees || st.Intermediate != d.States || st.DeadEnds != d.DeadEnds {
		return fmt.Errorf("daemon counted %d trees, %d states, %d dead ends (complete %v), serial reference %s",
			st.StandTrees, st.Intermediate, st.DeadEnds, st.Complete, d.counters())
	}
	if err := check.verify(); err != nil {
		return err
	}
	return dg.check(check)
}

// ckptRetry is the pause before a checkpoint request the daemon refused
// because the job was not running yet is sent again.
const ckptRetry = 2 * time.Millisecond

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// loadStats are the end-to-end figures of a set of daemon jobs.
type loadStats struct {
	outcomes   []jobOutcome
	wall       time.Duration // measured time, count passes excluded
	t1, t2     []float64     // in-process count pass times, seconds
	lat, first []float64     // seconds from due time
	trees      int64
	jobTime    float64 // seconds, the sum of lat
}

// merge pools two sets of collected figures.
func merge(a, b loadStats) loadStats {
	a.outcomes = append(a.outcomes, b.outcomes...)
	a.wall += b.wall
	a.t1, a.t2 = append(a.t1, b.t1...), append(a.t2, b.t2...)
	a.lat, a.first = append(a.lat, b.lat...), append(a.first, b.first...)
	a.trees += b.trees
	a.jobTime += b.jobTime
	return a
}

// collect derives the latency samples and tree total from the outcomes.
func collect(ls loadStats) loadStats {
	for _, o := range ls.outcomes {
		if o.err != nil || o.trees == 0 {
			continue
		}
		ls.lat = append(ls.lat, o.last.Sub(o.due).Seconds())
		ls.first = append(ls.first, o.first.Sub(o.due).Seconds())
		ls.trees += o.trees
		ls.jobTime += o.last.Sub(o.due).Seconds()
	}
	return ls
}

// setLoad sets the end-to-end job metrics of a daemon workload. trees_per_s
// is per second of job time, not of wall time: an open loop's wall time is
// its arrival schedule, which does not change when the daemon gets faster.
// In a closed loop the two are the same.
func (e *env) setLoad(ls loadStats) {
	e.setJobLatency(ls.lat)
	e.set("first_tree_s", median(ls.first), "s")
	e.set("trees_per_s", float64(ls.trees)/ls.jobTime, "1/s")
}

// setService sets the service-layer metrics from a traced set of jobs and
// the change of the daemon's /metrics over them.
func (e *env) setService(ls loadStats, delta map[string]float64) {
	var submit, wait, exec, tail, stats, ckpt []float64
	var bytes, streamSecs float64
	for _, o := range ls.outcomes {
		if o.err != nil {
			continue
		}
		submit = append(submit, ms(o.submitted.Sub(o.sent)))
		wait = append(wait, o.queueWait*1e3)
		exec = append(exec, o.status.ElapsedSeconds*1e3)
		if !o.finished.IsZero() {
			tail = append(tail, ms(o.last.Sub(o.finished)))
		}
		stats = append(stats, o.statsMS...)
		ckpt = append(ckpt, o.ckptMS...)
		bytes += float64(o.bytes)
		streamSecs += o.last.Sub(o.submitted).Seconds()
	}
	e.set("service.submit_ms", median(submit), "ms")
	e.set("service.queue_wait_ms", median(wait), "ms")
	e.set("service.exec_ms", median(exec), "ms")
	e.set("service.stream_tail_ms", median(tail), "ms")
	e.set("service.stats_ms", median(stats), "ms")
	e.set("service.checkpoint_ms", median(ckpt), "ms")
	mbps := 0.0
	if streamSecs > 0 {
		mbps = bytes / 1e6 / streamSecs
	}
	e.set("service.stream_mb_per_s", mbps, "MB/s")
	jobs := float64(len(ls.outcomes))
	e.set("service.journal_records_per_job",
		delta["gentriusd_journal_records_total"]/jobs, "count/job")
}
