package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchPath is the benchmark description steady reads its workloads, run
// length and bounds from, relative to the root of the checkout.
const benchPath = "BENCHMARK.json"

// benchmarkFile holds the parts of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain runs workloads repeatedly, interleaved (one run of each
// workload per round, the order rotating each round, a new seed each
// round), and prints each metric's median, quartiles and relative IQR. It
// flags every end-to-end metric whose spread exceeds its bound in
// BENCHMARK.json, and every run that failed, and exits 1 if it flagged any.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	names := fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed of the first round; round r uses seed+r")
	seconds := fs.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	daemonBin := fs.String("gentriusd", "", "gentriusd binary, passed to each run")
	out := fs.String("out", ".bench_build", "scratch directory, passed to each run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "steady: %s: %v\n", benchPath, err)
		return 1
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var wls []string
	if *names != "" {
		wls = strings.Split(*names, ",")
	} else {
		for _, w := range bf.Workloads {
			wls = append(wls, w.Name)
		}
	}
	secs := *seconds
	if secs == 0 {
		secs = bf.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}

	values := map[string]map[string][]float64{} // workload -> metric -> values
	units := map[string]string{}
	flagged := 0
	for r := 0; r < *runs; r++ {
		for k := range wls {
			w := wls[(k+r)%len(wls)]
			s := *seed + int64(r)
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.Itoa(secs), "--trace", "0",
				"--gentriusd", *daemonBin, "--out", *out)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			res, perr := lastResult(stdout.Bytes())
			if runErr != nil || perr != nil || !res.Correct || res.Failed > 0 {
				fmt.Printf("FLAG %s seed %d: run failed (exit %v, parse %v)\n%s", w, s, runErr, perr, stdout.String())
				flagged++
				continue
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
				units[name] = m.Unit
			}
			fmt.Fprintf(os.Stderr, "steady: round %d %s seed %d done\n", r+1, w, s)
		}
	}
	for _, w := range wls {
		fmt.Printf("%s\n  %-32s %3s %14s %14s %14s %8s %6s\n", w, "metric", "n", "median", "q1", "q3", "rel_iqr", "bound")
		ms := make([]string, 0, len(values[w]))
		for name := range values[w] {
			ms = append(ms, name)
		}
		sort.Strings(ms)
		for _, name := range ms {
			vs := values[w][name]
			q1, _, q3 := quartiles(vs)
			spread := relIQR(vs)
			mark, bound := "", ""
			if b, ok := bounds[name]; ok {
				bound = strconv.FormatFloat(b, 'g', -1, 64)
				if spread > b {
					mark = "  FLAG spread above bound"
					flagged++
				}
			}
			fmt.Printf("  %-32s %3d %14.6g %14.6g %14.6g %8.4f %6s %s%s\n", name, len(vs), median(vs), q1, q3, spread, bound, units[name], mark)
			fmt.Printf("  %-32s     by round: %s\n", "", strings.Trim(fmt.Sprint(vs), "[]"))
		}
	}
	if flagged > 0 {
		fmt.Printf("steady: %d flag(s)\n", flagged)
		return 1
	}
	return 0
}

// lastResult parses the result JSON on the last non-empty line of a run's
// standard output.
func lastResult(out []byte) (result, error) {
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) == 0 || len(lines[len(lines)-1]) == 0 {
		return res, fmt.Errorf("no output")
	}
	err := json.Unmarshal(lines[len(lines)-1], &res)
	return res, err
}
