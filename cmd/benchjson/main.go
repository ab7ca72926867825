// Command benchjson converts `go test -bench` text output into a JSON
// snapshot, so benchmark sweeps can be committed and diffed (see
// BENCH_parallel.json and `make bench`).
//
// Usage:
//
//	go test -bench 'SelectParallel' -benchtime 100x . | benchjson > BENCH_parallel.json
//	go test -bench 'SelectParallel' -benchtime 100x . | benchjson -compare BENCH_parallel.json -tolerance 0.25
//
// In -compare mode the fresh run (standard input) is diffed against the
// committed snapshot: for every benchmark present in both, the primary
// metric (ns/event when present, ns/op otherwise) may regress by at most the
// given tolerance (fraction; 0.25 = +25%). The exit status is 1 when any
// benchmark regresses beyond tolerance, 0 otherwise — improvements and
// benchmarks present on only one side are reported but never fail the run.
//
// Repeated benchmark names (`go test -count N`) are merged into one result
// taking the median value per metric, so tight-tolerance gates can run
// median-of-N on noisy machines: a single lucky or unlucky run moves
// neither side of the comparison.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line: the run count plus every reported metric
// (ns/op, ns/event, MB/s, B/op, allocs/op, ...) keyed by unit.
type Result struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

// Snapshot is the whole run: the goos/goarch/cpu/pkg context lines and
// the GOMAXPROCS the benchmarks ran at, plus all benchmark results in
// input order.
type Snapshot struct {
	Context map[string]string `json:"context"`
	Results []Result          `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	compareFile := fs.String("compare", "", "diff the fresh run against this committed snapshot instead of printing JSON")
	tolerance := fs.Float64("tolerance", 0.25, "allowed fractional regression of the primary metric in -compare mode")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	snap, err := parseBench(stdin, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if *compareFile == "" {
		out := json.NewEncoder(stdout)
		out.SetIndent("", "  ")
		if err := out.Encode(snap); err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		return 0
	}
	baseBytes, err := os.ReadFile(*compareFile)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	var base Snapshot
	if err := json.Unmarshal(baseBytes, &base); err != nil {
		fmt.Fprintf(stderr, "benchjson: %s: %v\n", *compareFile, err)
		return 2
	}
	regressions := compare(base, snap, *tolerance, stdout)
	if regressions > 0 {
		fmt.Fprintf(stdout, "FAIL: %d benchmark(s) regressed beyond %.0f%%\n", regressions, *tolerance*100)
		return 1
	}
	fmt.Fprintf(stdout, "ok: no regression beyond %.0f%%\n", *tolerance*100)
	return 0
}

// parseBench reads `go test -bench` text output into a snapshot. Malformed
// benchmark lines are reported to stderr and skipped.
func parseBench(r io.Reader, stderr io.Writer) (Snapshot, error) {
	snap := Snapshot{Context: map[string]string{}, Results: []Result{}}
	raw := map[string]map[string][]float64{}
	idx := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if k, v, ok := strings.Cut(line, ":"); ok && !strings.HasPrefix(line, "Benchmark") {
			switch k {
			case "goos", "goarch", "cpu", "pkg":
				snap.Context[k] = strings.TrimSpace(v)
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, runs, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			fmt.Fprintf(stderr, "benchjson: skipping malformed line: %s\n", line)
			continue
		}
		runs, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: skipping malformed line: %s\n", line)
			continue
		}
		name, procs := trimProcSuffix(fields[0])
		if _, ok := snap.Context["gomaxprocs"]; !ok {
			snap.Context["gomaxprocs"] = procs
		}
		r := Result{Name: name, Runs: runs, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			r.Metrics[fields[i+1]] = v
		}
		// Fold repeated names (`go test -count N`) into one entry per
		// benchmark, collecting every sample per metric for the median
		// reduction below.
		samples, ok := raw[r.Name]
		if !ok {
			samples = map[string][]float64{}
			raw[r.Name] = samples
			idx[r.Name] = len(snap.Results)
			snap.Results = append(snap.Results, r)
		} else {
			snap.Results[idx[r.Name]].Runs += r.Runs
		}
		for unit, v := range r.Metrics {
			samples[unit] = append(samples[unit], v)
		}
	}
	// The median is symmetric under scheduler jitter — one lucky or unlucky
	// run moves neither side of a -compare gate — which is what lets tight
	// tolerances hold on shared machines.
	for i := range snap.Results {
		for unit, vs := range raw[snap.Results[i].Name] {
			snap.Results[i].Metrics[unit] = median(vs)
		}
	}
	return snap, sc.Err()
}

func median(vs []float64) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// primaryMetric picks the metric a regression is judged on: per-event cost
// when the benchmark reports it, the runner's ns/op otherwise.
func primaryMetric(r Result) (string, float64, bool) {
	for _, unit := range []string{"ns/event", "ns/op"} {
		if v, ok := r.Metrics[unit]; ok {
			return unit, v, true
		}
	}
	return "", 0, false
}

// compare diffs fresh against base, printing one line per benchmark, and
// returns the number of regressions beyond tolerance. Lower is better for
// the primary metrics, so a regression is fresh > base·(1+tolerance).
func compare(base, fresh Snapshot, tolerance float64, out io.Writer) int {
	baseByName := map[string]Result{}
	for _, r := range base.Results {
		baseByName[r.Name] = r
	}
	regressions := 0
	seen := map[string]bool{}
	for _, fr := range fresh.Results {
		seen[fr.Name] = true
		br, ok := baseByName[fr.Name]
		if !ok {
			fmt.Fprintf(out, "new   %s (not in snapshot)\n", fr.Name)
			continue
		}
		unit, fv, ok := primaryMetric(fr)
		if !ok {
			fmt.Fprintf(out, "skip  %s (no primary metric in fresh run)\n", fr.Name)
			continue
		}
		bv, ok := br.Metrics[unit]
		if !ok {
			fmt.Fprintf(out, "skip  %s (snapshot lacks %s)\n", fr.Name, unit)
			continue
		}
		delta := (fv - bv) / bv
		switch {
		case bv <= 0:
			fmt.Fprintf(out, "skip  %s (non-positive baseline %s)\n", fr.Name, unit)
		case fv > bv*(1+tolerance):
			regressions++
			fmt.Fprintf(out, "REGR  %s %s %.4g -> %.4g (%+.1f%%)\n", fr.Name, unit, bv, fv, delta*100)
		default:
			fmt.Fprintf(out, "ok    %s %s %.4g -> %.4g (%+.1f%%)\n", fr.Name, unit, bv, fv, delta*100)
		}
	}
	for _, br := range base.Results {
		if !seen[br.Name] {
			fmt.Fprintf(out, "gone  %s (in snapshot, not in fresh run)\n", br.Name)
		}
	}
	return regressions
}

// trimProcSuffix drops the trailing -GOMAXPROCS that the bench runner
// appends when GOMAXPROCS > 1, so snapshots from different machines keep
// comparable names, and returns it beside the name ("1" when absent) for
// the snapshot's context.
func trimProcSuffix(name string) (string, string) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, "1"
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name, "1"
	}
	return name[:i], name[i+1:]
}
