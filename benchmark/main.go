// Command benchmark runs one workload of the repository's benchmark and
// prints its metrics; README.md beside it defines every workload and metric.
//
//	benchmark --workload count-corpus --seed 1 --seconds 25 --trace 0
//	benchmark steady --runs 10 --workloads count-corpus,stream-large
//
// The last line of standard output is one JSON object: the correctness
// verdict, attempted and failed operations, and the metrics, which are the
// end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
// (--trace 1). Lines before it, each starting with '#', describe the host,
// the build, the chosen datasets and the extra figures of the run. Each
// failed operation or correctness check is tallied; a run with any prints
// "correct": false and exits 1. A run that cannot proceed (no daemon, a
// failed warm-up) prints no result and exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gentrius"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what one run of a workload is given.
type env struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	daemon   string // path of the gentriusd binary
	work     string // scratch directory of this run, removed at exit
	traceDir string
	rec      *recorder // nil when untraced

	metrics  map[string]metric
	notes    []string
	tally    tally
	quiesced *gentrius.Checkpoint // a frontier snapshot taken by probeParallel
	jobs     atomic.Int64         // daemon jobs sent, for span job ids
}

func (e *env) nextJob() string { return fmt.Sprintf("job%d", e.jobs.Add(1)) }

// overheadChunks is how many alternating untraced and traced chunks a
// traced run measures its workload in.
const overheadChunks = 4

func (e *env) set(name string, v float64, unit string) { e.metrics[name] = metric{v, unit} }

// note adds a '#' line to the report printed before the result.
func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow start-up does not move it.
const setupReps = 3

type workloadFunc func(ctx context.Context, e *env) error

var workloads = map[string]workloadFunc{
	"count-corpus": runCountCorpus,
	"stream-large": runStreamLarge,
	"jobs-small":   runJobsSmall,
	"fleet-3node":  runFleet,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 25, "measured duration of the run")
	trace := fs.Int("trace", 0, "1: run traced and print the per-layer metrics")
	daemonBin := fs.String("gentriusd", "", "gentriusd binary the daemon workloads start")
	out := fs.String("out", ".bench_build", "directory for scratch data and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	work, err := os.MkdirTemp(mustMkdir(filepath.Join(*out, "run")), *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		daemon:   *daemonBin,
		work:     work,
		traceDir: mustMkdir(filepath.Join(*out, "trace")),
		metrics:  map[string]metric{},
	}
	if e.trace {
		e.rec = newRecorder()
	}
	meta := hostMeta(*daemonBin)
	if err := run(ctx, e); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	if e.trace {
		path := filepath.Join(e.traceDir, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		meta["workload"], meta["seed"] = *name, *seed
		if err := writeChromeTrace(path, e.rec.spans, e.rec.t0, meta); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		e.note("span file %s (Chrome trace JSON; open in ui.perfetto.dev)", path)
		printSelfTimes(os.Stdout, e.rec.spans)
	}
	mb, _ := json.Marshal(meta)
	fmt.Printf("# host %s\n", mb)
	for _, n := range e.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, line := range e.tally.errors {
		fmt.Printf("# failed: %s\n", line)
	}
	res := result{
		Correct:   e.tally.failed == 0,
		Attempted: e.tally.attempted,
		Failed:    e.tally.failed,
		Metrics:   e.metrics,
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	fmt.Printf("# fail_ratio %.6f ratio (%d of %d)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	return dir
}

// tally counts attempted and failed operations (jobs, requests, library
// calls). A failed, refused or wrongly answered operation is a failure.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errors    []string
}

// record counts one operation and whether it failed.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errors) < 10 {
			t.errors = append(t.errors, err.Error())
		}
	}
}
