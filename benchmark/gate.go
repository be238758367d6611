package main

import (
	"fmt"
	"sync"

	"gentrius/internal/brute"
	"gentrius/internal/tree"
)

// displaySamples is how many streamed trees per stand are parsed and checked
// to display every constraint (brute.Displays); spread evenly over the stream.
const displaySamples = 6

// standCheck is the correctness gate for one streamed stand: the tree count
// must equal the serial reference, no tree may repeat (a 64-bit hash set),
// and every sampled tree must display every constraint. It also folds the
// stand into an order-independent digest.
type standCheck struct {
	ds      *dataset
	seen    map[uint64]struct{}
	n       int64
	dups    int64
	digest  uint64
	stride  int64
	samples []string
}

func newStandCheck(ds *dataset) *standCheck {
	stride := ds.Trees / displaySamples
	if stride < 1 {
		stride = 1
	}
	return &standCheck{ds: ds, seen: make(map[uint64]struct{}, ds.Trees), stride: stride}
}

// add takes one tree's canonical Newick; the slice is not retained.
func (c *standCheck) add(newick []byte) {
	h := treeHash(newick)
	if _, dup := c.seen[h]; dup {
		c.dups++
	} else {
		c.seen[h] = struct{}{}
	}
	c.digest = digestAdd(c.digest, h)
	if c.n%c.stride == 0 && len(c.samples) < displaySamples {
		c.samples = append(c.samples, string(newick))
	}
	c.n++
}

// verify returns nil when the stand passes the gate.
func (c *standCheck) verify() error {
	if c.n != c.ds.Trees {
		return fmt.Errorf("%s: streamed %d trees, serial reference counts %d", c.ds.Name, c.n, c.ds.Trees)
	}
	if c.dups > 0 {
		return fmt.Errorf("%s: %d duplicate trees in the stream", c.ds.Name, c.dups)
	}
	for _, s := range c.samples {
		t, err := tree.Parse(s, c.ds.Taxa, false)
		if err != nil {
			return fmt.Errorf("%s: streamed tree does not parse: %w", c.ds.Name, err)
		}
		if t.NumLeaves() != c.ds.Taxa.Len() {
			return fmt.Errorf("%s: streamed tree has %d of %d taxa", c.ds.Name, t.NumLeaves(), c.ds.Taxa.Len())
		}
		for i, con := range c.ds.Cons {
			if !brute.Displays(t, con) {
				return fmt.Errorf("%s: streamed tree does not display constraint %d", c.ds.Name, i)
			}
		}
	}
	return nil
}

// digests remembers the first verified digest of each dataset, so every
// later stream of the same dataset must reproduce the same stand exactly.
type digests struct {
	mu sync.Mutex
	m  map[string]uint64
}

func (d *digests) check(c *standCheck) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.m == nil {
		d.m = make(map[string]uint64)
	}
	prev, ok := d.m[c.ds.Name]
	if !ok {
		d.m[c.ds.Name] = c.digest
		return nil
	}
	if prev != c.digest {
		return fmt.Errorf("%s: stand digest %016x differs from the first stream's %016x", c.ds.Name, c.digest, prev)
	}
	return nil
}
