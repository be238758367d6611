// Package simsched is a deterministic virtual-time simulator of the paper's
// thread-pool parallelization. It executes the *same* search engine and
// work-stealing policy as package parallel, but with N virtual workers
// advanced in lockstep by a discrete scheduler: each state transition
// (taxon insertion or removal), each path-replay step and each dequeue
// costs one tick of virtual time; busy-waiting costs wall ticks but no work.
//
// On the single-core host this reproduction runs on, real goroutine speedups
// beyond 1x are physically impossible, but the paper's observed phenomena —
// linear speedups, plateaus from unbalanced workflow trees, super-linear
// speedups through the stopping rules, adapted speedups — are consequences
// of the branch-and-bound workload shape interacting with the scheduling
// policy, which the simulator reproduces exactly. Speedup(N) is measured as
// makespan(1 worker) / makespan(N workers) in ticks.
//
// The simulator also models global-counter contention for the paper's
// counter-batching ablation (Sec. III-B): every flush of local counters into
// the shared totals stalls the flushing worker for FlushCost ticks, so
// unbatched updates (batch size 1) pay the cost on every transition.
package simsched

import (
	"context"
	"errors"
	"fmt"

	"gentrius/internal/obs"
	"gentrius/internal/search"
	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

// Limits are the stopping rules in virtual units: rule 3's wall-clock bound
// becomes a tick bound. Zero MaxTrees/MaxStates select the paper defaults;
// zero MaxTicks means unlimited; negative values mean unlimited.
type Limits struct {
	MaxTrees  int64
	MaxStates int64
	MaxTicks  int64
}

func (l Limits) normalize() Limits {
	if l.MaxTrees == 0 {
		l.MaxTrees = search.DefaultMaxTrees
	}
	if l.MaxStates == 0 {
		l.MaxStates = search.DefaultMaxStates
	}
	return l
}

// Options configures a simulated run.
type Options struct {
	Workers int
	Limits  Limits

	// InitialTree: constraint index, or negative for the paper's heuristic.
	InitialTree int

	// Batch sizes for global counter flushes (zero: paper defaults of
	// 2^10 / 2^13 / 2^10). Batch size 1 models unbatched updates.
	TreeBatch, StateBatch, DeadEndBatch int64

	// FlushCost is the virtual-time price of one global-counter flush
	// (atomic contention). Zero means free.
	FlushCost int64

	// QueueCap overrides the task-queue capacity (zero: the paper rule,
	// N_t+1 below 8 workers, N_t/2 from 8).
	QueueCap int
	// MinRemaining overrides the submission depth restriction (zero: 3).
	MinRemaining int

	// SplitPolicy selects how many of a frame's admissible branches a task
	// submission hands off (the paper divides in half).
	SplitPolicy SplitPolicy

	// Heuristic refines the dynamic taxon selection used by every worker
	// (zero value: the paper's min-branches rule).
	Heuristic search.OrderHeuristic

	CollectTrees bool

	// TraceEvery > 0 samples each worker's mode every TraceEvery ticks into
	// Result.Timeline — a textual Gantt chart of the pool (the paper's
	// Figure 3 load-imbalance picture). Zero disables tracing.
	TraceEvery int64

	// Trace, if non-nil, receives scheduler events (task-submit, steal,
	// flush, stop, worker-start, and the task-begin/task-end lineage spans)
	// stamped with virtual time. The simulator is single-threaded and
	// advances workers in id order, so repeated runs on the same input
	// produce byte-identical traces.
	Trace *obs.Recorder

	// Estimator, if non-nil, accumulates the weighted backtrack
	// fraction-complete measure exactly as the parallel pool does: workers
	// batch closed-leaf mass locally and merge it on counter flushes. The
	// simulator's deterministic scheduling makes the fraction-over-ticks
	// curve reproducible, which is what the convergence tests assert.
	Estimator *obs.Estimator

	// Ctx cancels the simulation. It is polled every 1024 virtual ticks
	// (mirroring the real engines' periodic stopping-rule checks), after
	// which the run stops with reason StopCancelled. Uncancelled runs stay
	// deterministic: the poll reads no clocks and emits no events.
	Ctx context.Context

	// Resume seeds the simulation from a checkpoint's task frontier instead
	// of the initial split — the same snapshot form package parallel
	// produces and consumes, so virtual-time tests can pin the determinism
	// of snapshot/resume cuts. Any Workers count may consume any snapshot.
	// InitialTree and Heuristic are taken from the checkpoint.
	Resume *search.Checkpoint

	// CheckpointOnStop captures the outstanding task frontier into
	// Result.Checkpoint when the run stops on a limit or cancellation
	// (nil when the stand was exhausted or the run failed).
	CheckpointOnStop bool
}

// SplitPolicy is the task-granularity design choice (DESIGN.md ablations).
type SplitPolicy int8

// Split policies.
const (
	SplitHalf      SplitPolicy = iota // the paper's choice: floor(n/2)
	SplitOne                          // submit a single branch per task
	SplitAllButOne                    // submit everything except one branch
)

func (p SplitPolicy) String() string {
	switch p {
	case SplitOne:
		return "one"
	case SplitAllButOne:
		return "all-but-one"
	default:
		return "half"
	}
}

// WorkerStats describes one virtual worker's activity.
type WorkerStats struct {
	search.Counters
	Busy   int64 // ticks spent on insertions/removals/replay/flush stalls
	Idle   int64 // ticks spent busy-waiting for tasks
	Replay int64 // subset of Busy spent replaying paths and rewinding
	Tasks  int64 // tasks executed (including the initial-split share)
}

// Result of a simulated run.
type Result struct {
	search.Counters
	Stop         search.StopReason
	Ticks        int64 // makespan in virtual time
	PrefixLen    int
	TasksStolen  int64
	Flushes      int64
	Trees        []string
	PerWorker    []WorkerStats
	InitialIndex int
	// Timeline holds one row per worker when Options.TraceEvery was set:
	// 'W' working, 'R' replaying/rewinding, 'F' stalled on a counter flush,
	// '.' idle (busy-waiting).
	Timeline []string
	// Heuristic aggregates the incremental admissible-branch accounting
	// work (terrace layer) across the coordinator prefix walk and every
	// virtual worker — the simulator's view of the counters the parallel
	// engine exports as gentrius_heuristic_* metrics.
	Heuristic terrace.HeuristicStats
	// Checkpoint holds the frontier snapshot when Options.CheckpointOnStop
	// was set and a stopping rule or cancellation ended the run.
	Checkpoint *search.Checkpoint
}

// RenderTimeline formats the timeline rows for display.
func (r *Result) RenderTimeline() string {
	if len(r.Timeline) == 0 {
		return ""
	}
	var b []byte
	for w, row := range r.Timeline {
		b = append(b, fmt.Sprintf("w%02d ", w)...)
		b = append(b, row...)
		b = append(b, '\n')
	}
	return string(b)
}

// Efficiency returns the fraction of wall ticks the workers spent busy.
func (r *Result) Efficiency() float64 {
	if r.Ticks == 0 || len(r.PerWorker) == 0 {
		return 1
	}
	busy := int64(0)
	for _, w := range r.PerWorker {
		busy += w.Busy
	}
	return float64(busy) / float64(r.Ticks*int64(len(r.PerWorker)))
}

type task struct {
	path     []search.PathStep
	taxon    int
	branches []int32
	id       int64   // run-unique lineage id (initial shares take 1..Workers)
	parent   int64   // id of the task whose execution submitted this one
	weight   float64 // per-branch leaf mass carried by branches (estimator)
	// frames is set on tasks seeded from a resumed checkpoint frontier: the
	// full serialized frame stack replaces the single seed frame.
	frames []search.FrameSnapshot
}

// worker modes.
const (
	wReplay = iota
	wWork
	wRewind
	wIdle
	wHalt
)

type vworker struct {
	id   int
	mode int
	t    *terrace.Terrace
	eng  *search.Engine

	replay     []search.PathStep
	replayPos  int
	rewindLeft int
	basePath   []search.PathStep
	seedTaxon  int
	seedBr     []int32
	seedWeight float64
	seedFrames []search.FrameSnapshot // resumed-frontier frame stack, if any
	hasSeed    bool

	curTask    int64 // id of the task being executed (lineage parent)
	parentTask int64 // parent id of the current task (span annotation)

	local     search.Counters // unflushed
	estMass   float64         // unflushed closed-leaf mass (estimator)
	estLeaves int64           // unflushed closed-leaf count
	prev      search.Counters // engine counters at last sample
	stats     WorkerStats

	stall int64 // remaining flush-stall ticks
	trace []byte
}

type sim struct {
	opt      Options
	limits   Limits
	g        search.Counters // flushed global counters
	stop     bool
	reason   search.StopReason
	queue    []task
	stolen   int64
	flushes  int64
	tick     int64
	nextTask int64 // task-id sequence, continued past the initial shares
	trees    []string
	workers  []*vworker
	prefix   []search.PathStep // common root path (for frontier snapshots)
}

// Run simulates a parallel Gentrius execution and returns virtual-time
// metrics. Workers <= 1 simulates the serial execution through the same
// machinery (one worker, no stealing partners).
func Run(constraints []*tree.Tree, opt Options) (*Result, error) {
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	lim := opt.Limits.normalize()
	if opt.TreeBatch <= 0 {
		opt.TreeBatch = 1 << 10
	}
	if opt.StateBatch <= 0 {
		opt.StateBatch = 1 << 13
	}
	if opt.DeadEndBatch <= 0 {
		opt.DeadEndBatch = 1 << 10
	}
	if opt.QueueCap <= 0 {
		if opt.Workers < 8 {
			opt.QueueCap = opt.Workers + 1
		} else {
			opt.QueueCap = opt.Workers / 2
		}
	}
	if opt.MinRemaining <= 0 {
		opt.MinRemaining = 3
	}

	res := &Result{Stop: search.StopExhausted}
	var (
		s  *sim
		t0 *terrace.Terrace
	)
	if opt.Resume != nil {
		cp := opt.Resume
		fr, err := cp.ResumeFrontier(constraints)
		if err != nil {
			return nil, err
		}
		idx := cp.InitialIndex
		opt.Heuristic = cp.Heuristic
		res.InitialIndex = idx
		res.PrefixLen = len(fr.Prefix)
		res.Counters = cp.Counters
		res.Ticks = int64(len(fr.Prefix))
		opt.Estimator.AddCounters(cp.Counters.StandTrees,
			cp.Counters.IntermediateStates, cp.Counters.DeadEnds)
		opt.Estimator.AddLeafMass(1-fr.RemainingMass(),
			cp.Counters.StandTrees+cp.Counters.DeadEnds)
		if len(fr.Tasks) == 0 {
			return res, nil
		}
		s = &sim{opt: opt, limits: lim, nextTask: int64(opt.Workers)}
		s.g = cp.Counters
		s.tick = int64(len(fr.Prefix))
		s.prefix = append([]search.PathStep(nil), fr.Prefix...)
		for w := 0; w < opt.Workers; w++ {
			tw, err := terrace.New(constraints, idx)
			if err != nil {
				return nil, fmt.Errorf("simsched: worker %d terrace: %w", w, err)
			}
			for _, st := range fr.Prefix {
				tw.ExtendTaxon(st.Taxon, st.Edge)
			}
			vw := &vworker{id: w, t: tw, mode: wIdle}
			vw.stats.Busy = int64(len(fr.Prefix))
			vw.stats.Replay = int64(len(fr.Prefix))
			opt.Trace.EmitAt(s.tick, obs.EvWorkerStart, w, obs.F("branches", 0))
			s.workers = append(s.workers, vw)
		}
		// All workers start idle; the frontier tasks go straight into the
		// queue and are stolen in deterministic order.
		for _, ft := range fr.Tasks {
			if len(ft.Frames) == 0 {
				continue
			}
			s.nextTask++
			s.queue = append(s.queue, task{
				path:   append([]search.PathStep(nil), ft.Path...),
				taxon:  ft.Frames[0].Taxon,
				id:     s.nextTask,
				weight: ft.Frames[0].Weight,
				frames: ft.Frames,
			})
		}
	} else {
		idx := opt.InitialTree
		if idx < 0 {
			idx = search.ChooseInitialTree(constraints)
		}
		if idx >= len(constraints) {
			return nil, fmt.Errorf("simsched: initial tree index %d out of range", idx)
		}
		res.InitialIndex = idx

		var err error
		t0, err = terrace.New(constraints, idx)
		if err != nil {
			if errors.Is(err, terrace.ErrIncompatible) {
				return res, nil
			}
			return nil, err
		}
		prefix := search.PrefixWalkH(t0, opt.Heuristic)
		res.PrefixLen = len(prefix.Path)
		res.Counters.Add(prefix.Counters)
		res.Ticks = int64(len(prefix.Path)) // every worker replays it concurrently
		opt.Estimator.AddCounters(prefix.Counters.StandTrees,
			prefix.Counters.IntermediateStates, prefix.Counters.DeadEnds)
		if prefix.Terminal {
			// The prefix closed the whole space: one leaf, the entire mass.
			opt.Estimator.AddLeafMass(1, 1)
			if opt.CollectTrees && prefix.Counters.StandTrees == 1 {
				res.Trees = append(res.Trees, t0.Agile().Newick())
			}
			res.Heuristic.Add(t0.HeuristicStats())
			return res, nil
		}

		s = &sim{opt: opt, limits: lim, nextTask: int64(opt.Workers)}
		s.g = prefix.Counters
		s.tick = int64(len(prefix.Path))
		s.prefix = append([]search.PathStep(nil), prefix.Path...)
		parts := search.PartitionBranches(prefix.SplitBranches, opt.Workers)
		for w := 0; w < opt.Workers; w++ {
			tw, err := terrace.New(constraints, idx)
			if err != nil {
				return nil, fmt.Errorf("simsched: worker %d terrace: %w", w, err)
			}
			for _, st := range prefix.Path {
				tw.ExtendTaxon(st.Taxon, st.Edge)
			}
			vw := &vworker{id: w, t: tw, mode: wIdle}
			vw.stats.Busy = int64(len(prefix.Path))
			vw.stats.Replay = int64(len(prefix.Path))
			opt.Trace.EmitAt(s.tick, obs.EvWorkerStart, w,
				obs.F("branches", int64(len(parts[w]))))
			if len(parts[w]) > 0 {
				vw.hasSeed = true
				vw.seedTaxon = prefix.SplitTaxon
				vw.seedBr = parts[w]
				vw.seedWeight = 1 / float64(len(prefix.SplitBranches))
				vw.curTask = int64(w) + 1 // reserved lineage roots, parent 0
				vw.parentTask = 0
				vw.startEngine(s)
			}
			s.workers = append(s.workers, vw)
		}
	}

	// Main loop: one tick advances every worker by one transition.
	for !s.stop {
		allIdle := true
		trace := opt.TraceEvery > 0 && s.tick%opt.TraceEvery == 0
		for _, w := range s.workers {
			s.advance(w)
			if w.mode != wIdle {
				allIdle = false
			}
			if trace {
				w.trace = append(w.trace, w.modeChar())
			}
		}
		s.tick++
		if allIdle && len(s.queue) == 0 {
			break
		}
		if lim.MaxTicks > 0 && s.tick >= lim.MaxTicks && !s.stop {
			s.stop = true
			s.reason = search.StopTimeLimit
			opt.Trace.EmitAt(s.tick, obs.EvStop, -1,
				obs.F("reason", int64(s.reason)),
				obs.F("trees", s.g.StandTrees),
				obs.F("states", s.g.IntermediateStates))
		}
		if opt.Ctx != nil && s.tick&1023 == 0 && !s.stop && opt.Ctx.Err() != nil {
			s.stop = true
			s.reason = search.StopCancelled
			opt.Trace.EmitAt(s.tick, obs.EvStop, -1,
				obs.F("reason", int64(s.reason)),
				obs.F("trees", s.g.StandTrees),
				obs.F("states", s.g.IntermediateStates))
		}
	}

	// Final flushes.
	for _, w := range s.workers {
		s.flushWorker(w, false)
	}
	res.Counters = s.g
	res.Ticks = s.tick
	res.TasksStolen = s.stolen
	res.Flushes = s.flushes
	res.Trees = s.trees
	if s.stop {
		res.Stop = s.reason
	}
	if t0 != nil {
		res.Heuristic.Add(t0.HeuristicStats())
	}
	for _, w := range s.workers {
		res.PerWorker = append(res.PerWorker, w.stats)
		if opt.TraceEvery > 0 {
			res.Timeline = append(res.Timeline, string(w.trace))
		}
		res.Heuristic.Add(w.t.HeuristicStats())
	}
	if opt.CheckpointOnStop && res.Stop != search.StopExhausted && res.Stop != search.StopFailed {
		res.Checkpoint = search.NewFrontierCheckpoint(constraints, res.InitialIndex,
			opt.Heuristic, res.Counters, s.frontier())
	}
	return res, nil
}

// frontier collects every outstanding unit of work after the simulation
// halted: in-flight engines, stolen-but-not-started seeds still replaying
// their paths, and the queue remnant. The simulator is single-threaded, so
// unlike the real pool no quiesce protocol is needed — the cut is
// consistent by construction.
func (s *sim) frontier() *search.Frontier {
	fr := &search.Frontier{
		Prefix:  append([]search.PathStep(nil), s.prefix...),
		Threads: s.opt.Workers,
	}
	for _, w := range s.workers {
		switch {
		case w.mode == wWork && w.eng != nil:
			frames := w.eng.SnapshotFrames(nil)
			if len(frames) > 0 {
				fr.Tasks = append(fr.Tasks, search.FrontierTask{
					Path:   append([]search.PathStep(nil), w.basePath...),
					Frames: frames,
				})
			}
		case w.hasSeed && len(w.seedFrames) > 0:
			fr.Tasks = append(fr.Tasks, search.FrontierTask{
				Path:   append([]search.PathStep(nil), w.basePath...),
				Frames: w.seedFrames,
			})
		case w.hasSeed:
			fr.Tasks = append(fr.Tasks,
				search.NewSeedTask(w.basePath, w.seedTaxon, w.seedBr, w.seedWeight))
		}
	}
	for i := range s.queue {
		tk := &s.queue[i]
		if len(tk.frames) > 0 {
			fr.Tasks = append(fr.Tasks, search.FrontierTask{
				Path:   append([]search.PathStep(nil), tk.path...),
				Frames: tk.frames,
			})
		} else {
			fr.Tasks = append(fr.Tasks,
				search.NewSeedTask(tk.path, tk.taxon, tk.branches, tk.weight))
		}
	}
	return fr
}

// modeChar maps the worker's instantaneous state to its timeline symbol.
func (w *vworker) modeChar() byte {
	switch {
	case w.stall > 0:
		return 'F'
	case w.mode == wWork:
		return 'W'
	case w.mode == wReplay || w.mode == wRewind:
		return 'R'
	default:
		return '.'
	}
}

// startEngine builds the engine for the worker's pending seed frame and
// wires the stealing hook and tree collection.
func (w *vworker) startEngine(s *sim) {
	if len(w.seedFrames) > 0 {
		eng, err := search.NewEngineFromFrames(w.t, w.seedFrames)
		if err != nil {
			// Frames passed FrontierView validation, so this is unreachable
			// short of memory corruption; fail the run rather than panic.
			s.stop = true
			s.reason = search.StopFailed
			w.hasSeed = false
			w.seedFrames = nil
			w.mode = wHalt
			return
		}
		w.eng = eng
	} else {
		w.eng = search.NewEngineWithFrame(w.t, w.seedTaxon, w.seedBr)
		w.eng.SetSeedBranchWeight(w.seedWeight)
	}
	w.eng.Heuristic = s.opt.Heuristic
	w.prev = search.Counters{}
	w.hasSeed = false
	w.seedFrames = nil
	w.mode = wWork
	w.stats.Tasks++
	s.opt.Trace.EmitAt(s.tick, obs.EvTaskStart, w.id,
		obs.F("task", w.curTask), obs.F("parent", w.parentTask),
		obs.F("taxon", int64(w.seedTaxon)),
		obs.F("branches", int64(len(w.seedBr))))
	if s.opt.Estimator != nil {
		w.eng.OnLeaf = func(wt float64) { w.estMass += wt; w.estLeaves++ }
	}
	w.eng.OnFramePushed = func(f *search.Frame) int {
		if w.eng.RemainingTaxa() < s.opt.MinRemaining {
			return 0
		}
		if len(s.queue) >= s.opt.QueueCap {
			return 0
		}
		var n int
		switch s.opt.SplitPolicy {
		case SplitOne:
			n = 1
		case SplitAllButOne:
			n = len(f.Branches) - 1
		default:
			n = len(f.Branches) / 2
		}
		if n <= 0 {
			return 0
		}
		path := append([]search.PathStep(nil), w.basePath...)
		path = w.eng.Path(path)
		s.nextTask++
		s.queue = append(s.queue, task{
			path:  path,
			taxon: f.Taxon,
			branches: append([]int32(nil),
				f.Branches[len(f.Branches)-n:]...),
			id:     s.nextTask,
			parent: w.curTask,
			weight: f.BranchWeight(),
		})
		s.opt.Trace.EmitAt(s.tick, obs.EvTaskSubmit, w.id,
			obs.F("task", s.nextTask), obs.F("parent", w.curTask),
			obs.F("taxon", int64(f.Taxon)), obs.F("branches", int64(n)),
			obs.F("path", int64(len(path))))
		return n
	}
	if s.opt.CollectTrees {
		w.eng.OnTree = func(nw string) { s.trees = append(s.trees, nw) }
	}
}

// advance executes one virtual tick for worker w.
func (s *sim) advance(w *vworker) {
	if w.stall > 0 {
		w.stall--
		w.stats.Busy++
		return
	}
	switch w.mode {
	case wHalt:
		return
	case wIdle:
		if len(s.queue) > 0 {
			tk := s.queue[0]
			s.queue[0] = task{} // do not retain the popped task's slices
			s.queue = s.queue[1:]
			s.stolen++
			s.opt.Trace.EmitAt(s.tick, obs.EvSteal, w.id,
				obs.F("task", tk.id),
				obs.F("taxon", int64(tk.taxon)),
				obs.F("branches", int64(len(tk.branches))),
				obs.F("path", int64(len(tk.path))))
			w.basePath = tk.path
			w.replay = tk.path
			w.replayPos = 0
			w.seedTaxon = tk.taxon
			w.seedBr = tk.branches
			w.seedWeight = tk.weight
			w.seedFrames = tk.frames
			w.curTask = tk.id
			w.parentTask = tk.parent
			w.hasSeed = true
			w.mode = wReplay
			w.stats.Busy++ // the dequeue tick
			return
		}
		w.stats.Idle++
	case wReplay:
		if w.replayPos < len(w.replay) {
			st := w.replay[w.replayPos]
			w.t.ExtendTaxon(st.Taxon, st.Edge)
			w.replayPos++
			w.stats.Busy++
			w.stats.Replay++
			return
		}
		w.startEngine(s)
		s.advance(w) // engine's first transition happens this tick
	case wRewind:
		if w.rewindLeft > 0 {
			w.t.RemoveTaxon()
			w.rewindLeft--
			w.stats.Busy++
			w.stats.Replay++
			return
		}
		w.basePath = nil
		if w.curTask != 0 {
			s.opt.Trace.EmitAt(s.tick, obs.EvTaskEnd, w.id,
				obs.F("task", w.curTask))
			w.curTask, w.parentTask = 0, 0
		}
		w.mode = wIdle
		s.advance(w)
	case wWork:
		ev := w.eng.Step()
		if ev == search.EvDone {
			w.rewindLeft = len(w.basePath)
			w.mode = wRewind
			s.advance(w)
			return
		}
		w.stats.Busy++
		c := w.eng.Counters()
		w.local.StandTrees += c.StandTrees - w.prev.StandTrees
		w.local.IntermediateStates += c.IntermediateStates - w.prev.IntermediateStates
		w.local.DeadEnds += c.DeadEnds - w.prev.DeadEnds
		w.prev = c
		if w.local.StandTrees >= s.opt.TreeBatch ||
			w.local.IntermediateStates >= s.opt.StateBatch ||
			w.local.DeadEnds >= s.opt.DeadEndBatch {
			s.flushWorker(w, true)
		}
	}
}

// flushWorker moves a worker's local counters into the global totals,
// re-evaluates the stopping rules and charges the contention cost.
func (s *sim) flushWorker(w *vworker, charge bool) {
	if w.local == (search.Counters{}) {
		return
	}
	s.opt.Trace.EmitAt(s.tick, obs.EvFlush, w.id,
		obs.F("trees", w.local.StandTrees),
		obs.F("states", w.local.IntermediateStates),
		obs.F("dead", w.local.DeadEnds))
	s.g.Add(w.local)
	w.stats.Counters.Add(w.local)
	s.opt.Estimator.AddLeafMass(w.estMass, w.estLeaves)
	s.opt.Estimator.AddCounters(w.local.StandTrees,
		w.local.IntermediateStates, w.local.DeadEnds)
	w.estMass, w.estLeaves = 0, 0
	w.local = search.Counters{}
	s.flushes++
	if charge {
		w.stall += s.opt.FlushCost
	}
	if !s.stop {
		if s.limits.MaxTrees > 0 && s.g.StandTrees >= s.limits.MaxTrees {
			s.stop = true
			s.reason = search.StopTreeLimit
		} else if s.limits.MaxStates > 0 && s.g.IntermediateStates >= s.limits.MaxStates {
			s.stop = true
			s.reason = search.StopStateLimit
		}
		if s.stop {
			s.opt.Trace.EmitAt(s.tick, obs.EvStop, w.id,
				obs.F("reason", int64(s.reason)),
				obs.F("trees", s.g.StandTrees),
				obs.F("states", s.g.IntermediateStates))
		}
	}
}
