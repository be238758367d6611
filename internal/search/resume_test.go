// Tests that serial snapshots resume exactly. Every resume runs the
// frontier engine (internal/parallel), so they live in an external test
// package.
package search_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"gentrius/internal/obs"
	"gentrius/internal/parallel"
	"gentrius/internal/search"
	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

var unlimited = search.Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}

// roundTrip serializes a checkpoint through the envelope codec, so every
// resume below also exercises the CRC/JSON path.
func roundTrip(t *testing.T, cp *search.Checkpoint) *search.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := cp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := search.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// resume finishes a checkpointed run at the given thread count, unlimited.
func resume(t *testing.T, cons []*tree.Tree, cp *search.Checkpoint, threads int) *parallel.Result {
	t.Helper()
	res, err := parallel.Run(cons, parallel.Options{
		Threads: threads, Limits: unlimited, Resume: roundTrip(t, cp), CollectTrees: true,
	})
	if err != nil {
		t.Fatalf("resume at %d threads: %v", threads, err)
	}
	if res.Stop != search.StopExhausted {
		t.Fatalf("resume at %d threads stopped early: %v", threads, res.Stop)
	}
	return res
}

// assertResumedStand checks a resume of a snapshot taken by a serial run
// whose uninterrupted twin is ref: the counters match exactly, and the
// trees found before the snapshot — the first cp.StandTrees of ref's
// deterministic DFS order — plus the resumed trees are ref's stand.
func assertResumedStand(t *testing.T, ref *search.Result, cp *search.Checkpoint, res *parallel.Result) {
	t.Helper()
	if res.Counters != ref.Counters {
		t.Fatalf("resumed counters %+v, uninterrupted %+v", res.Counters, ref.Counters)
	}
	pre := ref.Trees[:cp.Counters.StandTrees]
	all := append(append([]string(nil), pre...), res.Trees...)
	if !search.EqualStringSets(all, ref.Trees) {
		t.Fatalf("%d trees before the snapshot + %d resumed differ from the %d-tree stand",
			len(pre), len(res.Trees), len(ref.Trees))
	}
}

func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	rng := rand.New(rand.NewSource(6060))
	for scen := 0; scen < 8; scen++ {
		cons := search.RandomScenario(rng, 10+rng.Intn(4), 2+rng.Intn(2), 4, 0.55)
		idx := search.ChooseInitialTree(cons)

		// Interrupt an engine after a random number of steps, snapshot it
		// as its frontier, and finish through the frontier engine.
		tr, err := terrace.New(cons, idx)
		if err != nil {
			t.Fatal(err)
		}
		e := search.NewEngine(tr)
		var treesA []string
		e.OnTree = func(nw string) { treesA = append(treesA, nw) }
		stopAfter := 1 + rng.Intn(60)
		for i := 0; i < stopAfter; i++ {
			if e.Step() == search.EvDone {
				break
			}
		}
		cp := search.SerialCheckpoint(e, cons, idx)
		for e.Step() != search.EvDone {
		}
		ref := e.Counters()
		threads := []int{1, 2, 4}[scen%3]
		res := resume(t, cons, cp, threads)
		if res.Counters != ref {
			t.Fatalf("scen %d: resumed counters %+v, reference %+v", scen, res.Counters, ref)
		}
		pre := treesA[:cp.Counters.StandTrees]
		all := append(append([]string(nil), pre...), res.Trees...)
		if !search.EqualStringSets(all, treesA) {
			t.Fatalf("scen %d: pre+post checkpoint trees differ from reference (%d+%d vs %d)",
				scen, len(pre), len(res.Trees), len(treesA))
		}
	}
}

// TestSerialSnapshotsResumeAtAnyThreadCount: each way a serial run
// snapshots — on stop, on the interval, on a trigger request — writes a
// version-2 frontier that resumes at 1, 2 and 4 threads to exactly the
// uninterrupted counters and stand.
func TestSerialSnapshotsResumeAtAnyThreadCount(t *testing.T) {
	cons := search.ChainConstraints(t, 5, 5)
	ref, err := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited, CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	base := search.Options{InitialTree: -1, Limits: unlimited, CollectTrees: true, CheckEvery: 64}

	snaps := map[string]*search.Checkpoint{}

	ctx, cancel := context.WithCancel(context.Background())
	opt := base
	opt.Ctx, opt.CheckpointOnStop = ctx, true
	checks := 0
	opt.OnCheck = func(search.Counters, time.Duration) {
		if checks++; checks == 5 {
			cancel()
		}
	}
	stopped, err := search.Run(cons, opt)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	snaps["stop"] = stopped.Checkpoint

	var periodic []*search.Checkpoint
	opt = base
	opt.CheckpointInterval = time.Nanosecond // every stopping-rule check
	opt.OnCheckpoint = func(cp *search.Checkpoint) { periodic = append(periodic, cp) }
	if _, err := search.Run(cons, opt); err != nil {
		t.Fatal(err)
	}
	if len(periodic) < 3 {
		t.Fatalf("only %d periodic snapshots", len(periodic))
	}
	snaps["interval"] = periodic[len(periodic)/2]

	trig := search.NewCheckpointTrigger()
	got := make(chan *search.Checkpoint, 1)
	opt = base
	opt.Trigger = trig
	checks = 0
	opt.OnCheck = func(search.Counters, time.Duration) {
		if checks++; checks == 3 {
			go func() {
				cp, err := trig.Request(context.Background())
				if err != nil {
					t.Error(err)
				}
				got <- cp
			}()
		}
	}
	if _, err := search.Run(cons, opt); err != nil {
		t.Fatal(err)
	}
	snaps["trigger"] = <-got

	for _, src := range []string{"stop", "interval", "trigger"} {
		cp := snaps[src]
		if cp == nil {
			t.Fatalf("%s: no snapshot", src)
		}
		if cp.Version != 2 || cp.Frontier == nil || len(cp.Frames) != 0 {
			t.Fatalf("%s: snapshot is v%d (frontier %v, %d v1 frames), want a v2 frontier",
				src, cp.Version, cp.Frontier != nil, len(cp.Frames))
		}
		if cp.Counters == ref.Counters {
			t.Fatalf("%s: snapshot taken at the end; nothing was tested", src)
		}
		for _, threads := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/threads=%d", src, threads), func(t *testing.T) {
				assertResumedStand(t, ref, cp, resume(t, cons, cp, threads))
			})
		}
	}
}

// TestCancelCheckpointResumeEqualsUninterrupted is the acceptance
// criterion: cancel a run, checkpoint it, resume it, and end with exactly
// the counters (and stand) of an uninterrupted run.
func TestCancelCheckpointResumeEqualsUninterrupted(t *testing.T) {
	cons := search.ChainConstraints(t, 5, 5) // finite, but >> one check interval
	ref, err := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited, CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stop != search.StopExhausted {
		t.Fatalf("reference run stopped early: %v", ref.Stop)
	}
	if ref.Steps <= 1024 {
		t.Fatalf("reference run too small (%d steps) to interrupt meaningfully", ref.Steps)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	part1, err := search.Run(cons, search.Options{
		InitialTree:      -1,
		Limits:           unlimited,
		CollectTrees:     true,
		Ctx:              ctx,
		CheckpointOnStop: true,
		OnCheck:          func(search.Counters, time.Duration) { cancel() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if part1.Stop != search.StopCancelled {
		t.Fatalf("interrupted run stop = %v", part1.Stop)
	}
	if part1.Checkpoint == nil {
		t.Fatal("no checkpoint captured on cancellation")
	}
	if part1.Counters == ref.Counters {
		t.Fatal("interrupted run already finished; nothing was tested")
	}

	part2 := resume(t, cons, part1.Checkpoint, 1)
	// The resumed run continues from the checkpoint counters, so its
	// final counters are the combined totals.
	if part2.Counters != ref.Counters {
		t.Fatalf("resumed counters %+v != uninterrupted %+v", part2.Counters, ref.Counters)
	}
	if part2.InitialIndex != ref.InitialIndex {
		t.Fatalf("resumed initial index %d != %d", part2.InitialIndex, ref.InitialIndex)
	}
	// The two partial stands partition the full stand exactly.
	combined := append(append([]string(nil), part1.Trees...), part2.Trees...)
	if int64(len(combined)) != ref.StandTrees {
		t.Fatalf("combined %d trees, reference %d", len(combined), ref.StandTrees)
	}
	sort.Strings(combined)
	refTrees := append([]string(nil), ref.Trees...)
	sort.Strings(refTrees)
	for i := range combined {
		if combined[i] != refTrees[i] {
			t.Fatalf("combined stand differs from reference at %d", i)
		}
	}
}

// TestResumeLimitStopChain checks that checkpoint-on-stop also covers
// stopping rules (not only cancellation) and chains across multiple
// resumes: a serial snapshot first, then frontier-engine snapshots.
func TestResumeLimitStopChain(t *testing.T) {
	cons := search.ChainConstraints(t, 5, 5)
	ref, err := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited})
	if err != nil {
		t.Fatal(err)
	}
	limit := ref.StandTrees / 3
	if limit == 0 {
		t.Fatal("stand too small")
	}
	first, err := search.Run(cons, search.Options{
		InitialTree:      -1,
		Limits:           search.Limits{MaxTrees: limit, MaxStates: -1, MaxTime: -1},
		CheckpointOnStop: true,
		CheckEvery:       64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stop != search.StopTreeLimit || first.Checkpoint == nil {
		t.Fatalf("first leg: stop = %v, checkpoint = %v", first.Stop, first.Checkpoint != nil)
	}
	cp, counters, stop := first.Checkpoint, first.Counters, first.Stop
	hops := 0
	for cp != nil {
		if stop != search.StopTreeLimit {
			t.Fatalf("hop %d: stop = %v", hops, stop)
		}
		hops++
		if hops > 10 {
			t.Fatal("resume chain does not terminate")
		}
		res, err := parallel.Run(cons, parallel.Options{
			Threads:          1,
			Limits:           search.Limits{MaxTrees: counters.StandTrees + limit, MaxStates: -1, MaxTime: -1},
			CheckpointOnStop: true,
			Resume:           roundTrip(t, cp),
		})
		if err != nil {
			t.Fatal(err)
		}
		cp, counters, stop = res.Checkpoint, res.Counters, res.Stop
	}
	if stop != search.StopExhausted {
		t.Fatalf("final stop = %v", stop)
	}
	if counters != ref.Counters {
		t.Fatalf("chained counters %+v != uninterrupted %+v", counters, ref.Counters)
	}
	if hops < 2 {
		t.Fatalf("only %d resume hops; limit did not bite", hops)
	}
}

func TestPeriodicCheckpointResumeEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(7474))
	cons := search.RandomScenario(rng, 12, 2, 4, 0.55)

	ref, err := search.Run(cons, search.Options{Limits: unlimited})
	if err != nil {
		t.Fatal(err)
	}

	// search.Run with a snapshot at every stopping-rule check and cancel partway
	// through; resuming from the last periodic snapshot must land on the
	// reference counters exactly.
	ctx, cancel := context.WithCancel(context.Background())
	var last *search.Checkpoint
	snaps := 0
	interrupted, err := search.Run(cons, search.Options{
		Limits:             unlimited,
		CheckEvery:         64,
		Ctx:                ctx,
		CheckpointInterval: time.Nanosecond,
		OnCheckpoint: func(cp *search.Checkpoint) {
			last = cp
			if snaps++; snaps == 3 {
				cancel()
			}
		},
	})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if interrupted.Stop == search.StopExhausted {
		t.Skip("scenario too small to interrupt")
	}
	if last == nil {
		t.Fatal("no periodic checkpoint delivered")
	}
	if resumed := resume(t, cons, last, 1); resumed.Counters != ref.Counters {
		t.Fatalf("resumed counters %+v, reference %+v", resumed.Counters, ref.Counters)
	}
}

// TestEstimatorResumeSeedsConsumedMass: a run interrupted by a state limit
// and resumed from its checkpoint with a fresh estimator must still end at
// fraction 1 — the frontier's remaining mass tells the resume how much was
// consumed before the snapshot.
func TestEstimatorResumeSeedsConsumedMass(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	tested := 0
	for scen := 0; scen < 25 && tested < 5; scen++ {
		cons := search.RandomScenario(rng, 13+rng.Intn(5), 2+rng.Intn(2), 4, 0.45)
		first, err := search.Run(cons, search.Options{
			Limits:           search.Limits{MaxTrees: -1, MaxStates: int64(30 + rng.Intn(120)), MaxTime: -1},
			CheckEvery:       16,
			CheckpointOnStop: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if first.Checkpoint == nil {
			continue // exhausted before the limit fired
		}
		est := &obs.Estimator{}
		res, err := parallel.Run(cons, parallel.Options{
			Limits: unlimited,
			Obs:    &obs.Sink{Estimate: est},
			Resume: first.Checkpoint,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stop != search.StopExhausted {
			t.Fatalf("scenario %d: resumed run not exhausted: %v", scen, res.Stop)
		}
		if f := est.Fraction(); math.Abs(f-1) > 1e-9 {
			t.Fatalf("scenario %d: resumed fraction = %.12f, want 1 (checkpoint at %d states)",
				scen, f, first.IntermediateStates)
		}
		// The seeded counters plus the resumed half equal the full run's.
		if est.States() != res.IntermediateStates {
			t.Fatalf("scenario %d: estimator states %d, result %d",
				scen, est.States(), res.IntermediateStates)
		}
		tested++
	}
	if tested < 5 {
		t.Fatalf("only %d/5 scenarios hit the state limit", tested)
	}
}
