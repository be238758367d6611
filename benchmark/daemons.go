package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// The daemon workloads drive real gentriusd processes built as users build
// them (PGO on), each configured with gentriusd's defaults except for the
// flags a workload names.
var (
	// stream-large and fleet-3node: one large stand per job, streamed to the
	// end; Newick, spool and NDJSON dominate. At about 10^4 trees a job
	// takes 1.3 s on a 2-core host, so a run holds about 16 jobs. Both use
	// the same stand, so they compare one daemon with a fleet.
	standWant = want{minTrees: 8_000, maxTrees: 30_000, maxStates: 30_000, minTaxa: 120, count: 1}
	// A small stand warms the fleet up.
	warmWant = want{minTrees: 200, maxTrees: 2_000, maxStates: 20_000, count: 1}
	// jobs-small: a pool of small stands; per-job fixed costs dominate. An
	// odd pool puts the median job inside one member's samples. Up to 200
	// taxa keeps a job's CPU time low enough that a slow spell of a shared
	// host does not turn into a queue: with the 269-296-taxon members, the
	// open loop's median latency varied up to 40% from run to run.
	smallSim = want{minTrees: 50, maxTrees: 1_500, maxStates: 20_000, maxTaxa: 200, count: 5}
	smallEmp = want{minTrees: 50, maxTrees: 1_500, maxStates: 20_000, maxTaxa: 200, count: 4}
)

const (
	// smallRate is the open-loop arrival rate of jobs-small, well below what
	// a two-core host sustains for these jobs, so the queue stays short.
	smallRate = 5.0 // jobs per second
	// smallCheckpointEvery: every this many jobs-small jobs also gets an
	// on-demand checkpoint while it runs.
	smallCheckpointEvery = 4
	// fleetHeartbeat makes fleet workers ship a frontier checkpoint with
	// every heartbeat several times per shard.
	fleetHeartbeat = "100ms"
)

// cluster is the set of daemons of one set-up; the first is the one the
// client talks to. stop is safe on a partly started cluster.
type cluster struct {
	ds []*daemon
	c  *client
}

func (cl *cluster) stop() {
	if cl == nil {
		return
	}
	for i := len(cl.ds) - 1; i >= 0; i-- {
		cl.ds[i].stop()
	}
}

// startCluster starts n daemons, the last one first (fleet workers before
// their coordinator), and waits until all are healthy. flags gets every
// daemon's URL before any starts and returns each daemon's extra flags.
func startCluster(ctx context.Context, e *env, flags func(urls []string) [][]string, n int) (*cluster, error) {
	ports := make([]int, n)
	urls := make([]string, n)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i], urls[i] = p, fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	fl := flags(urls)
	cl := &cluster{ds: make([]*daemon, n)}
	hc := newHTTPClient()
	for i := n - 1; i >= 0; i-- {
		d, err := startDaemon(e.daemon, e.work, ports[i], fl[i]...)
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.ds[i] = d
	}
	for _, d := range cl.ds {
		if err := d.waitHealthy(ctx, hc); err != nil {
			cl.stop()
			return nil, err
		}
	}
	cl.c = &client{hc: hc, base: urls[0]}
	return cl, nil
}

// daemonWorkload is the shape every daemon workload shares: select inputs,
// start daemons, warm up — repeated for setup_s — then measure with a load
// function, and in a traced run also probe the layers.
type daemonWorkload struct {
	inputs func(ctx context.Context, seed int64) (measured, warm []*dataset, err error)
	flags  func(urls []string) [][]string
	warmup func(ctx context.Context, e *env, cl *cluster, warm []*dataset) error
	load   func(ctx context.Context, e *env, cl *cluster, rec *recorder, ds []*dataset, d time.Duration) loadStats
	fleet  bool
}

func (w daemonWorkload) run(ctx context.Context, e *env) error {
	var cl *cluster
	defer func() { cl.stop() }()
	var ds []*dataset
	var setups []float64
	for i := 0; i < e.setupReps(); i++ {
		cl.stop()
		cl = nil
		t0 := time.Now()
		measured, warm, err := w.inputs(ctx, e.seed)
		if err != nil {
			return err
		}
		n := 1
		if w.fleet {
			n = 3
		}
		cl, err = startCluster(ctx, e, w.flags, n)
		if err != nil {
			return err
		}
		if err := w.warmup(ctx, e, cl, warm); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		ds = measured
	}
	e.note("datasets %s", describe(ds))

	if !e.trace {
		pid := cl.ds[0].cmd.Process.Pid
		rss := sampleRSS(pid)
		ls := w.load(ctx, e, cl, nil, ds, e.seconds)
		e.setPeakRSS(pid, rss.stop())
		e.set("setup_s", median(setups), "s")
		e.setLoad(ls)
		e.set("count_t1_s", median(ls.t1), "s")
		e.set("count_t2_s", median(ls.t2), "s")
		e.note("jobs %d, trees %d in %.3f s; job latency s: %s", len(ls.outcomes), ls.trees, ls.wall.Seconds(), spread(ls.lat))
		return nil
	}
	// Untraced and traced chunks alternate, so host drift during the run
	// falls on both sides of the overhead comparison.
	var plain, traced loadStats
	delta := map[string]float64{}
	for k := 0; k < overheadChunks; k++ {
		if k%2 == 0 {
			plain = merge(plain, w.load(ctx, e, cl, nil, ds, e.seconds/overheadChunks))
			continue
		}
		before, err := cl.c.metrics(ctx)
		if err != nil {
			return err
		}
		traced = merge(traced, w.load(ctx, e, cl, e.rec, ds, e.seconds/overheadChunks))
		after, err := cl.c.metrics(ctx)
		if err != nil {
			return err
		}
		for name, v := range after {
			delta[name] += v - before[name]
		}
	}
	e.setOverhead(median(plain.lat), median(traced.lat))
	e.setService(traced, delta)
	if w.fleet {
		if err := e.setDist(len(traced.outcomes), delta); err != nil {
			return err
		}
	} else {
		e.zeroDist()
	}
	return layerProbes(ctx, e, ds, false)
}

// closedLoop runs jobs one after another, each sent when the previous one
// has streamed its last tree, until d has elapsed (at least three jobs). In
// an untraced run count passes follow each job, while the daemon idles, and
// take countShare of d.
func closedLoop(ctx context.Context, e *env, cl *cluster, rec *recorder, ds []*dataset, d time.Duration, dg *digests) loadStats {
	var ls loadStats
	var counted time.Duration
	for i := 0; i < 3 || ls.wall+counted < d; i++ {
		if ctx.Err() != nil {
			break
		}
		t0 := time.Now()
		ls.outcomes = append(ls.outcomes, runJob(ctx, e, cl.c, rec, dg, jobSpec{
			name: e.nextJob(), ds: ds[i%len(ds)], due: t0,
		}))
		job := time.Since(t0)
		ls.wall += job
		if !e.trace {
			c0 := time.Now()
			e.countPasses(ctx, ds, &ls, time.Duration(float64(job)*countShare/(1-countShare)))
			counted += time.Since(c0)
		}
	}
	return collect(ls)
}

func runStreamLarge(ctx context.Context, e *env) error {
	dg := &digests{}
	return daemonWorkload{
		inputs: func(ctx context.Context, seed int64) ([]*dataset, []*dataset, error) {
			ds, err := scan(ctx, 0, seed, standWant)
			return ds, ds, err
		},
		flags: func([]string) [][]string { return [][]string{nil} },
		warmup: func(ctx context.Context, e *env, cl *cluster, warm []*dataset) error {
			o := runJob(ctx, e, cl.c, nil, dg, jobSpec{name: "warmup", ds: warm[0], maxTrees: 1000, due: time.Now()})
			return o.err
		},
		load: func(ctx context.Context, e *env, cl *cluster, rec *recorder, ds []*dataset, d time.Duration) loadStats {
			return closedLoop(ctx, e, cl, rec, ds, d, dg)
		},
	}.run(ctx, e)
}

func runJobsSmall(ctx context.Context, e *env) error {
	dg := &digests{}
	return daemonWorkload{
		inputs: func(ctx context.Context, seed int64) ([]*dataset, []*dataset, error) {
			ds, err := scanBoth(ctx, seed, smallSim, smallEmp)
			return ds, ds[:1], err
		},
		flags: func([]string) [][]string { return [][]string{{"-max-threads", "2"}} },
		warmup: func(ctx context.Context, e *env, cl *cluster, warm []*dataset) error {
			o := runJob(ctx, e, cl.c, nil, dg, jobSpec{name: "warmup", ds: warm[0], threads: 2, stats: true, due: time.Now()})
			return o.err
		},
		load: func(ctx context.Context, e *env, cl *cluster, rec *recorder, ds []*dataset, d time.Duration) loadStats {
			return openLoop(ctx, e, cl, rec, ds, d, dg)
		},
	}.run(ctx, e)
}

// openLoopSegments splits an open-loop run into segments; after each, once
// its jobs have finished, an untraced run makes count passes for
// countShare of the run, so those samples come from across the run.
const openLoopSegments = 6

// openLoop sends jobs-small jobs on a fixed schedule whatever the daemon's
// progress, and times each from when it was due.
func openLoop(ctx context.Context, e *env, cl *cluster, rec *recorder, ds []*dataset, d time.Duration, dg *digests) loadStats {
	// Each pool member is sent equally often, in an order that is the same
	// for every seed: the seed changes the inputs, not the arrival pattern.
	rng := rand.New(rand.NewSource(1))
	var order []int
	interval := time.Duration(float64(time.Second) / smallRate)
	jobs, counts := d, time.Duration(0)
	if !e.trace {
		counts = time.Duration(float64(d) * countShare)
		jobs -= counts
	}
	perSeg := int(jobs / interval / openLoopSegments)
	if perSeg < 1 {
		perSeg = 1
	}
	var ls loadStats
	var late []float64
	for seg := 0; seg < openLoopSegments && ctx.Err() == nil; seg++ {
		outs := make([]jobOutcome, perSeg)
		var wg sync.WaitGroup
		start := time.Now()
		for k := 0; k < perSeg; k++ {
			i := seg*perSeg + k
			due := start.Add(time.Duration(k) * interval)
			if w := time.Until(due); w > 0 {
				select {
				case <-ctx.Done():
				case <-time.After(w):
				}
			}
			late = append(late, ms(time.Since(due)))
			if len(order) == 0 {
				order = rng.Perm(len(ds))
			}
			sp := jobSpec{
				name: e.nextJob(), ds: ds[order[0]], threads: 2, due: due,
				stats: true, checkpoint: i%smallCheckpointEvery == smallCheckpointEvery-1,
			}
			order = order[1:]
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				outs[k] = runJob(ctx, e, cl.c, rec, dg, sp)
			}(k)
		}
		wg.Wait()
		ls.wall += time.Since(start)
		ls.outcomes = append(ls.outcomes, outs...)
		if !e.trace {
			e.countPasses(ctx, ds, &ls, counts/openLoopSegments)
		}
	}
	taken, missed := 0, 0
	for _, o := range ls.outcomes {
		taken += len(o.ckptMS)
		missed += o.ckptLate
	}
	e.note("open loop %.1f jobs/s in %d segments: generator lateness median %.3f ms, max %.3f ms; checkpoints taken %d, job ended first %d",
		smallRate, openLoopSegments, median(late), percentile(late, 100), taken, missed)
	// The checkpoint path is part of what this workload checks: a run in
	// which no checkpoint landed has not exercised it.
	if taken == 0 && missed > 0 {
		e.tally.record(fmt.Errorf("open loop: none of %d checkpoint requests landed while its job ran", missed))
	}
	return collect(ls)
}

func runFleet(ctx context.Context, e *env) error {
	dg := &digests{}
	return daemonWorkload{
		fleet: true,
		inputs: func(ctx context.Context, seed int64) ([]*dataset, []*dataset, error) {
			ds, err := scan(ctx, 0, seed, standWant)
			if err != nil {
				return nil, nil, err
			}
			warm, err := scan(ctx, 0, seed, warmWant)
			return ds, warm, err
		},
		flags: func(urls []string) [][]string {
			return [][]string{{"-fleet", strings.Join(urls[1:], ","), "-heartbeat-every", fleetHeartbeat}, nil, nil}
		},
		warmup: func(ctx context.Context, e *env, cl *cluster, warm []*dataset) error {
			o := runJob(ctx, e, cl.c, nil, dg, jobSpec{name: "warmup", ds: warm[0], due: time.Now()})
			return o.err
		},
		load: func(ctx context.Context, e *env, cl *cluster, rec *recorder, ds []*dataset, d time.Duration) loadStats {
			ls := closedLoop(ctx, e, cl, rec, ds, d, dg)
			e.tally.record(checkFleet(ctx, cl))
			return ls
		},
	}.run(ctx, e)
}

// fleetStatus holds the fields of GET /v1/fleet/status the benchmark reads.
type fleetStatus struct {
	Peers []struct {
		Name  string `json:"name"`
		Alive bool   `json:"alive"`
	} `json:"peers"`
	Jobs []struct {
		Job    string `json:"job"`
		Shards []struct {
			Shard int    `json:"shard"`
			State string `json:"state"`
		} `json:"shards"`
	} `json:"jobs"`
}

// checkFleet requires both workers alive and every shard of every finished
// job merged.
func checkFleet(ctx context.Context, cl *cluster) error {
	var fs fleetStatus
	if err := cl.c.do(ctx, "GET", "/v1/fleet/status", nil, &fs); err != nil {
		return err
	}
	alive := 0
	for _, p := range fs.Peers {
		if p.Alive {
			alive++
		}
	}
	if alive != 2 {
		return fmt.Errorf("fleet status: %d of %d peers alive, want 2", alive, len(fs.Peers))
	}
	for _, j := range fs.Jobs {
		for _, s := range j.Shards {
			if s.State != "done" {
				return fmt.Errorf("fleet status: job %s shard %d is %q after the job finished", j.Job, s.Shard, s.State)
			}
		}
	}
	return nil
}

// setDist sets the fleet-layer metrics, per job, from the change of the
// coordinator's /metrics over the traced jobs.
func (e *env) setDist(jobs int, delta map[string]float64) error {
	if jobs == 0 {
		return fmt.Errorf("no fleet jobs ran")
	}
	for name, series := range map[string]string{
		"dist.dispatches":     "gentriusd_fleet_shards_dispatched_total",
		"dist.heartbeats":     "gentriusd_fleet_heartbeats_total",
		"dist.redispatches":   "gentriusd_fleet_redispatches_total",
		"dist.lease_expiries": "gentriusd_fleet_lease_expiries_total",
	} {
		e.set(name, delta[series]/float64(jobs), "count/job")
	}
	return nil
}
