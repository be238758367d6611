package search

import (
	"fmt"
	"io"

	"gentrius/internal/bitset"
	"gentrius/internal/tree"
)

// Checkpoint is a serializable snapshot of a running enumeration. The
// paper's third stopping rule defaults to 168 hours; runs of that length
// need to survive restarts. Every engine writes one payload version:
//
//   - Version 2 (frontier): the prefix path plus the task frontier (queued
//     and in-flight task snapshots, see Frontier). A serial run's frontier
//     is one task holding its whole frame stack. It resumes onto any
//     thread count.
//
// Version 1 files (a serial engine's bare frame stack, written by older
// releases) are still read: FrontierView turns them into a one-task
// frontier. Together with the original input the snapshot restores the
// enumeration exactly: the resumed run produces exactly the remaining work.
//
// The constraint trees themselves are NOT stored: the caller re-supplies
// the same input (same trees, same order) on restore, and a fingerprint
// guards against mismatches.
type Checkpoint struct {
	Version      int             `json:"version"`
	Fingerprint  string          `json:"fingerprint"`
	InitialIndex int             `json:"initial_index"`
	Heuristic    OrderHeuristic  `json:"heuristic"`
	Frames       []FrameSnapshot `json:"frames,omitempty"`
	Frontier     *Frontier       `json:"frontier,omitempty"`
	Counters     Counters        `json:"counters"`
	Done         bool            `json:"done"`
	Started      bool            `json:"started"`
}

// FrameSnapshot is one serialized branch-and-bound frame. Weight is the
// frame's Knuth-estimator branch weight, fixed when the frame was pushed;
// it must be stored rather than re-derived because work stealing shrinks a
// live frame's branch list after the weight was fixed (v1 serial frames
// never lose branches, so their weights stay derivable — see FrontierView).
type FrameSnapshot struct {
	Taxon    int     `json:"taxon"`
	Branches []int32 `json:"branches"`
	Idx      int     `json:"idx"`
	Inserted bool    `json:"inserted"`
	Weight   float64 `json:"weight,omitempty"`
}

// Frontier is the version-2 payload section: the complete set of
// outstanding work of a quiesced parallel (or simulated) run. Prefix is the
// common root path all tasks hang off (replayed without recounting on
// resume); Tasks covers both queued tasks (a single uninserted frame) and
// in-flight engines (a full frame stack). Threads records the snapshotting
// pool's width for observability only — resume accepts any thread count.
type Frontier struct {
	Prefix  []PathStep     `json:"prefix,omitempty"`
	Threads int            `json:"threads,omitempty"`
	Tasks   []FrontierTask `json:"tasks"`
}

// FrontierTask is one outstanding unit of work: the path from the initial
// split to the task's base state plus the engine frame stack above it.
type FrontierTask struct {
	Path   []PathStep      `json:"path,omitempty"`
	Frames []FrameSnapshot `json:"frames"`
}

// Checkpoint payload versions. checkpointVersion (1) is the old serial
// frame-stack format, only read; checkpointVersionFrontier (2) holds the
// Frontier section and is the only version written.
const (
	checkpointVersion         = 1
	checkpointVersionFrontier = 2
)

// fingerprint identifies a constraint-tree input (order-sensitive).
func fingerprint(constraints []*tree.Tree) string {
	h := uint64(1469598103934665603) // FNV-1a
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	for _, c := range constraints {
		mix(c.Newick())
		mix("|")
	}
	return fmt.Sprintf("%016x", h)
}

// Fingerprint returns the input fingerprint stored in checkpoints taken on
// these constraint trees (order-sensitive).
func Fingerprint(constraints []*tree.Tree) string { return fingerprint(constraints) }

// serialCheckpoint snapshots a serial engine as a frontier with an empty
// prefix and one task holding the engine's frame stack. Serial frames carry
// their estimator weights from the push, so the snapshot resumes like any
// quiesced pool's, at any thread count.
func serialCheckpoint(e *Engine, constraints []*tree.Tree, initialIndex int) *Checkpoint {
	fr := &Frontier{Threads: 1}
	if frames := e.SnapshotFrames(nil); len(frames) > 0 {
		fr.Tasks = []FrontierTask{{Frames: frames}}
	}
	return NewFrontierCheckpoint(constraints, initialIndex, e.Heuristic, e.counters, fr)
}

// NewFrontierCheckpoint assembles a version-2 checkpoint around a quiesced
// frontier. Counters must be the flushed global totals at quiesce time
// (including any prefix-walk counters), so that resume seeds them exactly.
func NewFrontierCheckpoint(constraints []*tree.Tree, initialIndex int, h OrderHeuristic, c Counters, fr *Frontier) *Checkpoint {
	return &Checkpoint{
		Version:      checkpointVersionFrontier,
		Fingerprint:  fingerprint(constraints),
		InitialIndex: initialIndex,
		Heuristic:    h,
		Frontier:     fr,
		Counters:     c,
		Started:      true,
		Done:         len(fr.Tasks) == 0,
	}
}

// Validate checks a checkpoint against the supplied constraint trees:
// payload version, version/frontier consistency, input fingerprint and
// initial-index range. ResumeFrontier calls this before touching any frame.
func (cp *Checkpoint) Validate(constraints []*tree.Tree) error {
	switch cp.Version {
	case checkpointVersion:
		if cp.Frontier != nil {
			return fmt.Errorf("search: version-1 checkpoint carries a frontier section: %w", ErrVersion)
		}
	case checkpointVersionFrontier:
		if cp.Frontier == nil {
			return fmt.Errorf("search: version-2 checkpoint missing its frontier section: %w", ErrVersion)
		}
	default:
		return fmt.Errorf("search: version %d: %w", cp.Version, ErrVersion)
	}
	if got := fingerprint(constraints); got != cp.Fingerprint {
		return fmt.Errorf("search: checkpoint fingerprint %s, supplied input %s: %w",
			cp.Fingerprint, got, ErrFingerprint)
	}
	if cp.InitialIndex < 0 || cp.InitialIndex >= len(constraints) {
		return fmt.Errorf("search: checkpoint initial index %d out of range", cp.InitialIndex)
	}
	return nil
}

// ResumeFrontier is the one check a resume runs before it builds any
// terrace: Validate, then FrontierView, then a replay of every step on the
// agile tree's leaf set and edge count (see checkReplay). A frontier that
// fails the replay is an error wrapping ErrCorruptFrontier.
func (cp *Checkpoint) ResumeFrontier(constraints []*tree.Tree) (*Frontier, error) {
	if err := cp.Validate(constraints); err != nil {
		return nil, err
	}
	fr, err := cp.FrontierView()
	if err != nil {
		return nil, err
	}
	if err := checkReplay(constraints[cp.InitialIndex], fr); err != nil {
		return nil, err
	}
	return fr, nil
}

// agileReplay tracks what a replay needs of the agile tree: which taxa are
// on it and how many edges it has (ids are the dense prefix [0, edges)).
type agileReplay struct {
	placed *bitset.Set
	edges  int
}

// admit checks that taxon is missing from the agile tree and that every
// edge is one of its edges.
func (a *agileReplay) admit(taxon int, edges ...int32) error {
	if taxon < 0 || taxon >= a.placed.Len() {
		return fmt.Errorf("taxon %d out of range [0,%d)", taxon, a.placed.Len())
	}
	if a.placed.Has(taxon) {
		return fmt.Errorf("taxon %d is already on the agile tree", taxon)
	}
	for _, e := range edges {
		if e < 0 || int(e) >= a.edges {
			return fmt.Errorf("edge %d out of range for taxon %d (agile tree has %d edges)", e, taxon, a.edges)
		}
	}
	return nil
}

// place inserts taxon: one new leaf adds two edges.
func (a *agileReplay) place(taxon int) {
	a.placed.Add(taxon)
	a.edges += 2
}

func (a *agileReplay) clone() *agileReplay {
	return &agileReplay{placed: a.placed.Clone(), edges: a.edges}
}

// checkReplay walks the frontier's prefix, then each task's path and
// frames, from the initial agile tree: every taxon must be in range and
// not yet placed at its point of the replay, and every edge — each path
// step's and every branch of every frame — must exist on the agile tree at
// that depth. Without this check an out-of-range taxon or edge panics
// inside a worker's terrace replay.
func checkReplay(initial *tree.Tree, fr *Frontier) error {
	root := &agileReplay{placed: initial.LeafSet().Clone(), edges: initial.NumEdges()}
	for i, s := range fr.Prefix {
		if err := root.admit(s.Taxon, s.Edge); err != nil {
			return fmt.Errorf("search: frontier prefix step %d: %v: %w", i, err, ErrCorruptFrontier)
		}
		root.place(s.Taxon)
	}
	for ti, task := range fr.Tasks {
		a := root.clone()
		for i, s := range task.Path {
			if err := a.admit(s.Taxon, s.Edge); err != nil {
				return fmt.Errorf("search: frontier task %d path step %d: %v: %w", ti, i, err, ErrCorruptFrontier)
			}
			a.place(s.Taxon)
		}
		for i, f := range task.Frames {
			if err := a.admit(f.Taxon, f.Branches...); err != nil {
				return fmt.Errorf("search: frontier task %d frame %d: %v: %w", ti, i, err, ErrCorruptFrontier)
			}
			if f.Inserted {
				a.place(f.Taxon)
			}
		}
	}
	return nil
}

// FrontierView returns the checkpoint's outstanding work as a frontier,
// regardless of payload version. A version-2 checkpoint returns its stored
// frontier; a version-1 serial checkpoint is synthesized into a one-task
// frontier with weights re-derived top-down (valid because serial frames
// never lose branches to stealing). The returned frontier is structurally
// validated: frame indices in range, inserted frames with a chosen branch,
// weights present on every frame that still has branches. Failures wrap
// ErrCorruptFrontier.
func (cp *Checkpoint) FrontierView() (*Frontier, error) {
	if cp.Frontier != nil {
		for ti := range cp.Frontier.Tasks {
			if err := validateTaskFrames(cp.Frontier.Tasks[ti].Frames, true); err != nil {
				return nil, fmt.Errorf("search: frontier task %d: %v: %w", ti, err, ErrCorruptFrontier)
			}
		}
		return cp.Frontier, nil
	}
	fr := &Frontier{}
	if cp.Done || len(cp.Frames) == 0 {
		return fr, nil
	}
	if err := validateTaskFrames(cp.Frames, false); err != nil {
		return nil, fmt.Errorf("search: serial checkpoint frames: %v: %w", err, ErrCorruptFrontier)
	}
	frames := make([]FrameSnapshot, len(cp.Frames))
	parentW := 1.0
	for i, f := range cp.Frames {
		w := 0.0
		if len(f.Branches) > 0 {
			w = parentW / float64(len(f.Branches))
		}
		frames[i] = f
		frames[i].Weight = w
		parentW = w
	}
	fr.Tasks = []FrontierTask{{Frames: frames}}
	return fr, nil
}

// validateTaskFrames rejects structurally corrupt frame stacks before any
// terrace mutation happens. needWeight is set for stored (v2) frames, whose
// weights cannot be re-derived.
func validateTaskFrames(frames []FrameSnapshot, needWeight bool) error {
	for i, f := range frames {
		if f.Idx < 0 || f.Idx > len(f.Branches) {
			return fmt.Errorf("corrupt frame %d (idx %d of %d branches)", i, f.Idx, len(f.Branches))
		}
		if f.Inserted && f.Idx == 0 {
			return fmt.Errorf("corrupt frame %d (inserted with idx 0)", i)
		}
		if needWeight && len(f.Branches) > 0 && !(f.Weight > 0) {
			return fmt.Errorf("corrupt frame %d (missing estimator weight)", i)
		}
	}
	return nil
}

// NewSeedTask converts a queued (not yet started) task — path, split taxon,
// branch share, estimator weight — into its frontier form: a single
// uninserted frame at index 0.
func NewSeedTask(path []PathStep, taxon int, branches []int32, weight float64) FrontierTask {
	return FrontierTask{
		Path: append([]PathStep(nil), path...),
		Frames: []FrameSnapshot{{
			Taxon:    taxon,
			Branches: append([]int32(nil), branches...),
			Weight:   weight,
		}},
	}
}

// RemainingMass sums the Knuth-estimator mass of all outstanding work in
// the frontier: for each frame, weight × (branches not yet tried). The
// branch currently in flight under an inserted frame is excluded — its
// remainder is carried by the deeper frames. 1 − RemainingMass() is the
// consumed mass to seed into an estimator on resume (see
// obs.Estimator.AddLeafMass).
func (f *Frontier) RemainingMass() float64 {
	rem := 0.0
	for ti := range f.Tasks {
		for _, fr := range f.Tasks[ti].Frames {
			rem += fr.Weight * float64(len(fr.Branches)-fr.Idx)
		}
	}
	return rem
}

// Write serializes the checkpoint in the checksummed envelope format (see
// checkpointfile.go). For crash-safe persistence to disk use WriteFile.
func (cp *Checkpoint) Write(w io.Writer) error {
	data, err := cp.encode()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ReadCheckpoint parses a checkpoint, accepting both the checksummed
// envelope and the legacy bare-JSON format.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("search: reading checkpoint: %w", err)
	}
	return decodeCheckpoint(data)
}
