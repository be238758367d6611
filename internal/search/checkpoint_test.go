package search

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

// snapshotAfter runs a fresh engine for the given number of steps and
// returns its frontier snapshot.
func snapshotAfter(t *testing.T, cons []*tree.Tree, steps int) *Checkpoint {
	t.Helper()
	idx := ChooseInitialTree(cons)
	tr, err := terrace.New(cons, idx)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(tr)
	for i := 0; i < steps; i++ {
		e.Step()
	}
	return serialCheckpoint(e, cons, idx)
}

func TestCheckpointRejectsWrongInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6161))
	cons := randomScenario(rng, 10, 2, 4, 0.55)
	other := randomScenario(rng, 10, 2, 4, 0.55)
	cp := snapshotAfter(t, cons, 5)
	if _, err := cp.ResumeFrontier(other); err == nil {
		t.Fatal("expected fingerprint mismatch")
	}
	cp.Version = 99
	if _, err := cp.ResumeFrontier(cons); err == nil {
		t.Fatal("expected version error")
	}
}

func TestCheckpointCorruptFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(6262))
	cons := randomScenario(rng, 10, 2, 4, 0.55)
	cp := snapshotAfter(t, cons, 10)
	if len(cp.Frontier.Tasks) == 0 {
		t.Skip("no frames to corrupt")
	}
	f := &cp.Frontier.Tasks[0].Frames[0]
	f.Idx = len(f.Branches) + 5
	if _, err := cp.ResumeFrontier(cons); !errors.Is(err, ErrCorruptFrontier) {
		t.Fatalf("corrupt frame index: err = %v, want ErrCorruptFrontier", err)
	}
}

// TestResumeFrontierReplayCheck: a frontier whose prefix, task path or
// frames name a taxon out of range or already on the agile tree, or an
// edge the agile tree does not have at that depth, fails the resume check
// with ErrCorruptFrontier; the frontiers real runs write pass it.
func TestResumeFrontierReplayCheck(t *testing.T) {
	cons := chainConstraints(t, 5, 5)
	cp := snapshotAfter(t, cons, 200)
	if len(cp.Frontier.Tasks) != 1 || len(cp.Frontier.Tasks[0].Frames) < 3 {
		t.Fatalf("want one task with a frame stack, got %+v", cp.Frontier)
	}
	if _, err := cp.ResumeFrontier(cons); err != nil {
		t.Fatalf("valid serial frontier rejected: %v", err)
	}
	// Move the stack's first insertion into the prefix and the second into
	// the task path: the same work, spread over all three sections.
	frames := cp.Frontier.Tasks[0].Frames
	step := func(f FrameSnapshot) PathStep { return PathStep{Taxon: f.Taxon, Edge: f.Branches[f.Idx-1]} }
	good := func() *Checkpoint {
		c := *cp
		c.Frontier = &Frontier{
			Prefix: []PathStep{step(frames[0])},
			Tasks:  []FrontierTask{{Path: []PathStep{step(frames[1])}, Frames: frames[2:]}},
		}
		return &c
	}
	if _, err := good().ResumeFrontier(cons); err != nil {
		t.Fatalf("valid prefix/path frontier rejected: %v", err)
	}
	initialTaxon := cons[cp.InitialIndex].LeafSet().Min()
	cases := map[string]func(fr *Frontier){
		"prefix taxon out of range": func(fr *Frontier) { fr.Prefix[0].Taxon = 999 },
		"prefix taxon on the tree":  func(fr *Frontier) { fr.Prefix[0].Taxon = initialTaxon },
		"prefix edge out of range":  func(fr *Frontier) { fr.Prefix[0].Edge = 999 },
		"path taxon out of range":   func(fr *Frontier) { fr.Tasks[0].Path[0].Taxon = -1 },
		"path taxon placed twice":   func(fr *Frontier) { fr.Tasks[0].Path[0].Taxon = fr.Prefix[0].Taxon },
		"path edge out of range":    func(fr *Frontier) { fr.Tasks[0].Path[0].Edge = 999 },
		"frame taxon out of range":  func(fr *Frontier) { fr.Tasks[0].Frames[0].Taxon = 999 },
		"frame taxon already placed": func(fr *Frontier) {
			fr.Tasks[0].Frames[0].Taxon = fr.Tasks[0].Path[0].Taxon
		},
		"frame edge out of range": func(fr *Frontier) {
			f := &fr.Tasks[0].Frames[0]
			f.Branches = append(append([]int32(nil), f.Branches...), 999)
		},
	}
	for name, corrupt := range cases {
		c := good()
		// Deep-copy the sections the case mutates.
		fr := c.Frontier
		fr.Prefix = append([]PathStep(nil), fr.Prefix...)
		fr.Tasks[0].Path = append([]PathStep(nil), fr.Tasks[0].Path...)
		fr.Tasks[0].Frames = append([]FrameSnapshot(nil), fr.Tasks[0].Frames...)
		corrupt(fr)
		if _, err := c.ResumeFrontier(cons); !errors.Is(err, ErrCorruptFrontier) {
			t.Errorf("%s: err = %v, want ErrCorruptFrontier", name, err)
		}
	}
}

func TestCheckpointJSONRoundTrip(t *testing.T) {
	cp := &Checkpoint{
		Version:     checkpointVersion,
		Fingerprint: "abc",
		Frames:      []FrameSnapshot{{Taxon: 3, Branches: []int32{1, 2}, Idx: 1, Inserted: true}},
		Counters:    Counters{StandTrees: 7},
		Started:     true,
	}
	var buf bytes.Buffer
	if err := cp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"fingerprint\":\"abc\"") {
		t.Fatalf("unexpected JSON: %s", buf.String())
	}
	back, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Counters.StandTrees != 7 || len(back.Frames) != 1 || !back.Frames[0].Inserted {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if _, err := ReadCheckpoint(strings.NewReader("{broken")); err == nil {
		t.Fatal("expected JSON error")
	}
}
