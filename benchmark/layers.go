package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gentrius"
	"gentrius/internal/search"
	"gentrius/internal/simsched"
	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

// newickPerDataset caps the stand trees rendered per dataset by the Newick
// probe, so a large stand costs a bounded share of the traced run.
const newickPerDataset = 300

// layerProbes times calls into each engine layer's public functions on the
// workload's datasets, recording a span around each, and sets the library
// layers' per-layer metrics. The scheduling simulator runs on the
// count-corpus datasets only (withSim); elsewhere its speedups read 0.
func layerProbes(ctx context.Context, e *env, ds []*dataset, withSim bool) error {
	probes := []func(context.Context, *env, []*dataset) error{
		probeTerrace, probeSearch, probeNewick, probeParse, probeParallel, probeCheckpoint,
	}
	if withSim {
		probes = append(probes, probeSimsched)
	} else {
		e.set("simsched.vt_speedup2", 0, "x")
		e.set("simsched.vt_speedup16", 0, "x")
	}
	for _, p := range probes {
		if err := p(ctx, e, ds); err != nil {
			return err
		}
	}
	return nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func newTerrace(d *dataset) (*terrace.Terrace, error) {
	tr, err := terrace.New(d.Cons, search.ChooseInitialTree(d.Cons))
	if err != nil {
		return nil, fmt.Errorf("%s: terrace.New: %w", d.Name, err)
	}
	return tr, nil
}

func probeTerrace(_ context.Context, e *env, ds []*dataset) error {
	const reps = 3
	var dur time.Duration
	var allocs uint64
	n := 0
	for r := 0; r < reps; r++ {
		for _, d := range ds {
			m0 := mallocs()
			s := e.rec.begin("terrace.New", d.Name, 0)
			t0 := time.Now()
			_, err := newTerrace(d)
			dur += time.Since(t0)
			e.rec.end(s)
			allocs += mallocs() - m0
			if err != nil {
				return err
			}
			n++
		}
	}
	e.set("terrace.new_ms", float64(dur.Nanoseconds())/1e6/float64(n), "ms")
	e.set("terrace.new_allocs", float64(allocs)/float64(n), "count")
	return nil
}

// probeSearch runs a count-only search.Engine Step loop over each stand and
// checks its counters against the reference.
func probeSearch(_ context.Context, e *env, ds []*dataset) error {
	var dur time.Duration
	var steps int64
	var c search.Counters
	for _, d := range ds {
		tr, err := newTerrace(d)
		if err != nil {
			return err
		}
		eng := search.NewEngine(tr)
		s := e.rec.begin("search.Step", d.Name, 0)
		t0 := time.Now()
		n := int64(0)
		for eng.Step() != search.EvDone {
			n++
		}
		dur += time.Since(t0)
		e.rec.end(s)
		steps += n + 1
		got := eng.Counters()
		if got.StandTrees != d.Trees {
			return fmt.Errorf("%s: engine step loop counted %d trees, want %d", d.Name, got.StandTrees, d.Trees)
		}
		c.Add(got)
	}
	e.set("search.step_ns", float64(dur.Nanoseconds())/float64(steps), "ns")
	e.set("search.steps", float64(steps), "count")
	ratio := 0.0
	if leaves := c.StandTrees + c.DeadEnds; leaves > 0 {
		ratio = float64(c.DeadEnds) / float64(leaves)
	}
	e.set("search.dead_end_ratio", ratio, "ratio")
	return nil
}

// probeNewick renders stand trees with Tree.Newick at each EvTreeFound, as
// the engines do when trees are streamed, up to newickPerDataset per stand.
func probeNewick(_ context.Context, e *env, ds []*dataset) error {
	var dur time.Duration
	var bytes, allocs, n int64
	for _, d := range ds {
		tr, err := newTerrace(d)
		if err != nil {
			return err
		}
		eng := search.NewEngine(tr)
		e.rec.reserve(newickPerDataset + 1)
		walk := e.rec.begin("search.Step", d.Name, 0)
		m0 := mallocs()
		k := 0
		for k < newickPerDataset {
			ev := eng.Step()
			if ev == search.EvDone {
				break
			}
			if ev != search.EvTreeFound {
				continue
			}
			t0 := time.Now()
			s := tr.Agile().Newick()
			t1 := time.Now()
			e.rec.add("tree.Newick", d.Name, walk, t0, t1)
			dur += t1.Sub(t0)
			bytes += int64(len(s))
			k++
		}
		allocs += int64(mallocs() - m0)
		e.rec.end(walk)
		n += int64(k)
	}
	if n == 0 {
		return errors.New("newick probe: no stand trees")
	}
	e.set("tree.newick_us", float64(dur.Nanoseconds())/1e3/float64(n), "us")
	e.set("tree.newick_bytes", float64(bytes)/float64(n), "B")
	e.set("tree.newick_allocs", float64(allocs)/float64(n), "count")
	return nil
}

// probeParse parses every constraint from its Newick text, as a daemon does
// for each submitted job.
func probeParse(_ context.Context, e *env, ds []*dataset) error {
	var dur time.Duration
	n := 0
	for r := 0; r < 5; r++ {
		for _, d := range ds {
			for _, nw := range d.Newicks {
				s := e.rec.begin("tree.Parse", d.Name, 0)
				t0 := time.Now()
				_, err := tree.Parse(nw, d.Taxa, false)
				dur += time.Since(t0)
				e.rec.end(s)
				if err != nil {
					return fmt.Errorf("%s: parsing a constraint: %w", d.Name, err)
				}
				n++
			}
		}
	}
	e.set("tree.parse_us", float64(dur.Nanoseconds())/1e3/float64(n), "us")
	return nil
}

// probeParallel counts each stand with two workers and reads the pool's
// steal count and per-worker balance, then measures quiesce latency with
// CheckpointTrigger.Request on the largest stand.
func probeParallel(ctx context.Context, e *env, ds []*dataset) error {
	var steals int64
	var imb []float64
	for _, d := range ds {
		opt := gentrius.DefaultOptions()
		opt.Threads = 2
		s := e.rec.begin("parallel.Run", d.Name, 0)
		res, err := gentrius.EnumerateStandContext(ctx, d.Cons, opt)
		e.rec.end(s)
		if err != nil {
			return fmt.Errorf("%s at 2 threads: %w", d.Name, err)
		}
		if res.StandTrees != d.Trees {
			return fmt.Errorf("%s at 2 threads: %d trees, want %d", d.Name, res.StandTrees, d.Trees)
		}
		steals += res.TasksStolen
		var max, tot float64
		for _, w := range res.PerWorker {
			v := float64(w.IntermediateStates)
			tot += v
			if v > max {
				max = v
			}
		}
		if tot > 0 {
			imb = append(imb, max/(tot/float64(len(res.PerWorker))))
		}
	}
	e.set("parallel.steals", float64(steals), "count")
	e.set("parallel.imbalance", mean(imb), "ratio")

	q, cp, err := quiesce(ctx, e, largest(ds))
	if err != nil {
		return err
	}
	e.set("parallel.quiesce_ms", median(q), "ms")
	e.quiesced = cp
	return nil
}

// quiesce runs a two-thread count of d and requests on-demand checkpoints
// until the run ends, returning each request's latency and the last
// snapshot. The run's counters must still equal the serial reference.
func quiesce(ctx context.Context, e *env, d *dataset) ([]float64, *gentrius.Checkpoint, error) {
	trig := gentrius.NewCheckpointTrigger()
	opt := gentrius.DefaultOptions()
	opt.Threads = 2
	opt.Checkpoint = &gentrius.CheckpointPolicy{Trigger: trig}
	type out struct {
		res *gentrius.Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := gentrius.EnumerateStandContext(ctx, d.Cons, opt)
		done <- out{res, err}
	}()
	var lat []float64
	var last *gentrius.Checkpoint
	for {
		s := e.rec.begin("parallel.quiesce", d.Name, 0)
		t0 := time.Now()
		cp, err := trig.Request(ctx)
		el := time.Since(t0)
		e.rec.end(s)
		if err != nil {
			break // the run ended
		}
		lat = append(lat, float64(el.Nanoseconds())/1e6)
		last = cp
		time.Sleep(2 * time.Millisecond)
	}
	o := <-done
	if o.err != nil {
		return nil, nil, fmt.Errorf("%s quiesced run: %w", d.Name, o.err)
	}
	if o.res.StandTrees != d.Trees || o.res.IntermediateStates != d.States || o.res.DeadEnds != d.DeadEnds {
		return nil, nil, fmt.Errorf("%s quiesced run: %d trees, %d states, %d dead ends, want %s",
			d.Name, o.res.StandTrees, o.res.IntermediateStates, o.res.DeadEnds, d.counters())
	}
	return lat, last, nil
}

// probeSimsched runs the deterministic virtual-time simulator at 1, 2 and 16
// workers; the speedups are ratios of virtual makespans, free of host noise.
func probeSimsched(_ context.Context, e *env, ds []*dataset) error {
	ticks := map[int]int64{}
	for _, w := range []int{1, 2, 16} {
		for _, d := range ds {
			s := e.rec.begin("simsched.Run", d.Name, 0)
			res, err := simsched.Run(d.Cons, simsched.Options{Workers: w, InitialTree: -1})
			e.rec.end(s)
			if err != nil {
				return fmt.Errorf("%s: simsched at %d workers: %w", d.Name, w, err)
			}
			if res.StandTrees != d.Trees {
				return fmt.Errorf("%s: simsched at %d workers counted %d trees, want %d", d.Name, w, res.StandTrees, d.Trees)
			}
			ticks[w] += res.Ticks
		}
	}
	e.set("simsched.vt_speedup2", float64(ticks[1])/float64(ticks[2]), "x")
	e.set("simsched.vt_speedup16", float64(ticks[1])/float64(ticks[16]), "x")
	return nil
}

// probeCheckpoint persists a frontier checkpoint crash-safely, reads it
// back, and resumes it serially to completion: the resumed counters must
// equal the serial reference.
func probeCheckpoint(ctx context.Context, e *env, ds []*dataset) error {
	d := largest(ds)
	cp := e.quiesced
	if cp == nil {
		// The stand finished before any on-demand request landed: stop a
		// two-thread run halfway and take its checkpoint-on-stop instead.
		opt := gentrius.DefaultOptions()
		opt.Threads = 2
		opt.MaxTrees = d.Trees / 2
		opt.Checkpoint = &gentrius.CheckpointPolicy{OnStop: true}
		res, err := gentrius.EnumerateStandContext(ctx, d.Cons, opt)
		if err != nil {
			return fmt.Errorf("%s: stopped run: %w", d.Name, err)
		}
		cp = res.Checkpoint
	}
	if cp == nil {
		e.set("search.ckpt_bytes", 0, "B")
		e.set("search.ckpt_write_ms", 0, "ms")
		e.set("search.ckpt_read_ms", 0, "ms")
		e.note("no frontier checkpoint: %s finished before a snapshot", d.Name)
		return nil
	}
	path := filepath.Join(e.work, "probe.ckpt")
	var wr, rd []float64
	var back *gentrius.Checkpoint
	for r := 0; r < 5; r++ {
		s := e.rec.begin("search.ckpt_write", d.Name, 0)
		t0 := time.Now()
		err := cp.WriteFile(path)
		wr = append(wr, float64(time.Since(t0).Nanoseconds())/1e6)
		e.rec.end(s)
		if err != nil {
			return fmt.Errorf("writing checkpoint: %w", err)
		}
		s = e.rec.begin("search.ckpt_read", d.Name, 0)
		t0 = time.Now()
		back, err = gentrius.ReadCheckpointFile(path)
		rd = append(rd, float64(time.Since(t0).Nanoseconds())/1e6)
		e.rec.end(s)
		if err != nil {
			return fmt.Errorf("reading checkpoint back: %w", err)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	e.set("search.ckpt_bytes", float64(fi.Size()), "B")
	e.set("search.ckpt_write_ms", median(wr), "ms")
	e.set("search.ckpt_read_ms", median(rd), "ms")

	opt := gentrius.DefaultOptions()
	opt.Checkpoint = &gentrius.CheckpointPolicy{Resume: back}
	s := e.rec.begin("parallel.Run", d.Name+" resumed", 0)
	res, err := gentrius.EnumerateStandContext(ctx, d.Cons, opt)
	e.rec.end(s)
	if err != nil {
		return fmt.Errorf("%s: resuming the checkpoint: %w", d.Name, err)
	}
	if res.StandTrees != d.Trees || res.IntermediateStates != d.States || res.DeadEnds != d.DeadEnds {
		e.tally.record(fmt.Errorf("%s: resumed run ended at %d trees, %d states, %d dead ends, want %s",
			d.Name, res.StandTrees, res.IntermediateStates, res.DeadEnds, d.counters()))
	} else {
		e.tally.record(nil)
	}
	return nil
}

func largest(ds []*dataset) *dataset {
	l := ds[0]
	for _, d := range ds[1:] {
		if d.Trees > l.Trees {
			l = d
		}
	}
	return l
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
