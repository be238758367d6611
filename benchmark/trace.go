package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. The layer is the part of Name before the first dot.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Name   string
	Job    string // the job (or dataset pass) the span belongs to
	Start  time.Time
	End    time.Time
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay one branch per call site.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id; end closes it. Both are safe for
// concurrent use and no-ops on a nil recorder.
func (r *recorder) begin(name, job string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Job: job, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// reserve grows the span buffer so the next n spans record without
// allocating, keeping a probe's allocation count its own.
func (r *recorder) reserve(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cap(r.spans)-len(r.spans) < n {
		r.spans = append(make([]span, 0, 2*cap(r.spans)+n), r.spans...)
	}
}

// add records an already-timed span.
func (r *recorder) add(name, job string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Job: job, Start: start, End: end})
	return len(r.spans)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time: its spans' durations minus the
// part of each interval that the span's own children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		out[layerOf(s.Name)] += s.End.Sub(s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped to
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if b.IsZero() {
			continue
		}
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// printSelfTimes writes the self-time table, largest share first.
func printSelfTimes(w io.Writer, spans []span) {
	st := selfTimes(spans)
	layers := make([]string, 0, len(st))
	var total time.Duration
	for l, d := range st {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return st[layers[i]] > st[layers[j]] })
	fmt.Fprintf(w, "# self time by layer (%d spans)\n", len(spans))
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(st[l]) / float64(total)
		}
		fmt.Fprintf(w, "#   %-10s %12.3f ms %6.2f%%\n", l, float64(st[l].Microseconds())/1000, share)
	}
}

// writeChromeTrace writes the spans in the Chrome trace-event JSON format,
// which Perfetto (ui.perfetto.dev) and chrome://tracing load: one complete
// ("X") event per span, one track per job, parent and layer in args, and the
// host/build metadata under "metadata".
func writeChromeTrace(path string, spans []span, t0 time.Time, meta map[string]any) error {
	spans = append([]span(nil), spans...)
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].End.After(spans[j].End)
	})
	tr := tracks{}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		tid, fresh := tr.place(s)
		if fresh {
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": s.Job}})
		}
		events = append(events, event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.Start.Sub(t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "job": s.Job},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "metadata": meta}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// tracks packs spans onto trace tracks so that the spans on one track either
// nest or follow each other, as complete events on one thread must; a job's
// spans that overlap without nesting (a stats poll beside its tree stream)
// go to a second track of the same job. Spans must arrive sorted by start,
// longer first on ties.
type tracks struct {
	lanes []lane
}

type lane struct {
	job  string
	open []time.Time // end times of the spans still open on this lane
}

func (t *tracks) place(s span) (tid int, fresh bool) {
	for i := range t.lanes {
		l := &t.lanes[i]
		if l.job != s.Job {
			continue
		}
		for len(l.open) > 0 && !l.open[len(l.open)-1].After(s.Start) {
			l.open = l.open[:len(l.open)-1]
		}
		if len(l.open) == 0 || !s.End.After(l.open[len(l.open)-1]) {
			l.open = append(l.open, s.End)
			return i + 1, false
		}
	}
	t.lanes = append(t.lanes, lane{job: s.Job, open: []time.Time{s.End}})
	return len(t.lanes), true
}
