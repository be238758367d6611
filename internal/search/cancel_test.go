package search

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gentrius/internal/tree"
)

// chainConstraints builds two caterpillar constraint trees sharing the core
// {A,B,C,D}, with nx and ny private taxa respectively. The two private
// chains interleave almost freely, so the stand grows combinatorially in
// nx+ny — large values give an effectively unbounded enumeration for
// cancellation tests, small ones a finite but nontrivial stand.
func chainConstraints(t *testing.T, nx, ny int) []*tree.Tree {
	t.Helper()
	names := []string{"A", "B", "C", "D"}
	for i := 0; i < nx; i++ {
		names = append(names, fmt.Sprintf("x%d", i))
	}
	for i := 0; i < ny; i++ {
		names = append(names, fmt.Sprintf("y%d", i))
	}
	taxa := tree.MustTaxa(names)
	cat := func(leaves []string) string {
		s := "(" + leaves[0] + "," + leaves[1] + ")"
		for _, n := range leaves[2:] {
			s = "(" + s + "," + n + ")"
		}
		return s + ";"
	}
	c1 := []string{"A", "B"}
	for i := 0; i < nx; i++ {
		c1 = append(c1, fmt.Sprintf("x%d", i))
	}
	c1 = append(c1, "C", "D")
	c2 := []string{"A", "B"}
	for i := 0; i < ny; i++ {
		c2 = append(c2, fmt.Sprintf("y%d", i))
	}
	c2 = append(c2, "C", "D")
	return []*tree.Tree{
		tree.MustParse(cat(c1), taxa),
		tree.MustParse(cat(c2), taxa),
	}
}

// TestRunCancelMidFlight cancels from the OnCheck hook — i.e. exactly at a
// stopping-rule check — and expects the very same check to observe the
// cancellation (the acceptance criterion's "within one check interval").
func TestRunCancelMidFlight(t *testing.T) {
	cons := chainConstraints(t, 12, 12) // effectively unbounded stand
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	checks := 0
	res, err := Run(cons, Options{
		InitialTree: -1,
		Limits:      Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1},
		Ctx:         ctx,
		OnCheck: func(Counters, time.Duration) {
			checks++
			if checks == 2 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopCancelled {
		t.Fatalf("stop = %v, want %v", res.Stop, StopCancelled)
	}
	if checks != 2 {
		t.Fatalf("cancellation observed after %d checks, want 2 (same check interval)", checks)
	}
	if res.IntermediateStates == 0 {
		t.Fatal("no work recorded before cancellation")
	}
}

func TestRunPreCancelled(t *testing.T) {
	cons := chainConstraints(t, 12, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(cons, Options{
		InitialTree: -1,
		Limits:      Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1},
		Ctx:         ctx,
		CheckEvery:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopCancelled {
		t.Fatalf("stop = %v, want %v", res.Stop, StopCancelled)
	}
	if res.Steps > 64 {
		t.Fatalf("pre-cancelled run took %d steps, want <= one CheckEvery interval", res.Steps)
	}
}

func TestCheckpointRejectsStaticOrder(t *testing.T) {
	cons := chainConstraints(t, 4, 4)
	if _, err := Run(cons, Options{InitialTree: -1, CheckpointOnStop: true, DisableDynamicOrder: true}); err == nil {
		t.Fatal("CheckpointOnStop with DisableDynamicOrder should error")
	}
	if _, err := Run(cons, Options{Trigger: NewCheckpointTrigger(), DisableDynamicOrder: true}); err == nil {
		t.Fatal("Trigger with DisableDynamicOrder should error")
	}
}
