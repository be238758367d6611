package main

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync"

	"gentrius"
	"gentrius/internal/gen"
	"gentrius/internal/tree"
)

// dataset is one generated workload input with its serial count-only
// reference: the counters every enumeration of it, in-process or through a
// daemon, at any thread count or across a fleet, must reproduce exactly.
type dataset struct {
	Name     string
	Taxa     *tree.Taxa
	Cons     []*tree.Tree
	Newicks  []string // the constraints as submitted to a daemon
	Trees    int64
	States   int64
	DeadEnds int64
}

func (d *dataset) counters() string {
	return fmt.Sprintf("%d trees, %d states, %d dead ends", d.Trees, d.States, d.DeadEnds)
}

// want selects datasets whose stand size lies in [minTrees, maxTrees].
// maxStates bounds the probe of each candidate: a candidate not exhausted
// within maxTrees trees and maxStates states is rejected, so a scan never
// pays for a huge stand.
type want struct {
	minTrees, maxTrees int64
	maxStates          int64
	minTaxa, maxTaxa   int // maxTaxa 0: no upper limit
	count              int
}

// genSeed fixes the generated corpus the workloads select from, so every
// run measures the same stand shapes and sizes; the run's seed varies how
// the selected inputs are presented (see relabel).
const genSeed = 1

// scan walks dataset indices of one regime of internal/gen and returns the
// first w.count datasets that pass a bounded count-only probe, relabeled by
// seed. The probe is capped by w's tree and state limits, so a candidate
// with a huge stand costs little; the selection does not depend on seed.
func scan(ctx context.Context, regime gen.Regime, seed int64, w want) ([]*dataset, error) {
	cfg := gen.Default(regime)
	cfg.Seed = genSeed
	var out []*dataset
	const maxScan = 400
	for idx := 0; len(out) < w.count; idx++ {
		if idx == maxScan {
			return nil, fmt.Errorf("scanning %v datasets: only %d of %d in range after %d candidates", regime, len(out), w.count, maxScan)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g := gen.Generate(cfg, idx)
		if n := g.Taxa.Len(); n < w.minTaxa || (w.maxTaxa > 0 && n > w.maxTaxa) {
			continue
		}
		opt := gentrius.DefaultOptions()
		opt.MaxTrees = w.maxTrees + 1
		opt.MaxStates = w.maxStates
		res, err := gentrius.EnumerateStandContext(ctx, g.Constraints, opt)
		if err != nil {
			return nil, fmt.Errorf("probing %s: %w", g.Name, err)
		}
		if !res.Complete() || res.StandTrees < w.minTrees || res.StandTrees > w.maxTrees {
			continue
		}
		d, err := relabel(ctx, g, seed, int64(idx))
		if err != nil {
			return nil, err
		}
		if d.Trees != res.StandTrees {
			return nil, fmt.Errorf("%s: relabeled stand has %d trees, original %d", d.Name, d.Trees, res.StandTrees)
		}
		out = append(out, d)
	}
	return out, nil
}

var taxonName = regexp.MustCompile(`T[0-9]+`)

// relabel presents a generated dataset as the seed dictates: the taxon
// names are permuted. The program sees different text and a different stand
// (up to names), while the search stays isomorphic: taxa are numbered by
// first appearance in the text, which the renaming keeps, so the work, and
// so the figures, do not depend on the seed. Shuffling the constraints
// instead would change the initial tree and tie-breaks, and with them a
// single-dataset workload's cost by up to 15% from seed to seed. The
// returned dataset holds the constraints parsed as gentriusd parses a job,
// and their serial count-only reference.
func relabel(ctx context.Context, g *gen.Dataset, seed, idx int64) (*dataset, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + idx))
	names := gen.TaxonNames(g.Taxa.Len())
	perm := rng.Perm(len(names))
	rename := make(map[string]string, len(names))
	for i, n := range names {
		rename[n] = names[perm[i]]
	}
	d := &dataset{Name: fmt.Sprintf("%s@%d", g.Name, seed)}
	for _, c := range g.Constraints {
		d.Newicks = append(d.Newicks, taxonName.ReplaceAllStringFunc(c.Newick(), func(n string) string { return rename[n] }))
	}
	cons, taxa, err := gentrius.ReadTrees(strings.NewReader(strings.Join(d.Newicks, "\n")), nil)
	if err != nil {
		return nil, fmt.Errorf("parsing relabeled %s: %w", d.Name, err)
	}
	d.Cons, d.Taxa = cons, taxa
	res, err := gentrius.EnumerateStandContext(ctx, cons, gentrius.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("counting %s: %w", d.Name, err)
	}
	if !res.Complete() {
		return nil, fmt.Errorf("counting %s: stopped by %v", d.Name, res.Stop)
	}
	d.Trees, d.States, d.DeadEnds = res.StandTrees, res.IntermediateStates, res.DeadEnds
	return d, nil
}

// scanBoth scans both regimes at once, one goroutine each, and returns the
// simulated datasets followed by the empirical-regime ones.
func scanBoth(ctx context.Context, seed int64, sim, emp want) ([]*dataset, error) {
	var wg sync.WaitGroup
	var res [2][]*dataset
	var errs [2]error
	for i, w := range []want{sim, emp} {
		if w.count == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, w want) {
			defer wg.Done()
			res[i], errs[i] = scan(ctx, gen.Regime(i), seed, w)
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return append(res[0], res[1]...), nil
}

func describe(ds []*dataset) string {
	s := ""
	for i, d := range ds {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("%s taxa=%d constraints=%d trees=%d states=%d", d.Name, d.Taxa.Len(), len(d.Cons), d.Trees, d.States)
	}
	return s
}
