// Command perfbench is the end-to-end benchmark of the stackless engine:
// bytes in, matches out, through the public API (stackless.Query and
// MultiQuery) in a closed loop with one caller goroutine, every result
// checked against the internal/tree oracle.
//
//	perfbench --workload xml-select --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// replays the same ops layer by layer through the modules' exported
// functions, writes the spans to a JSON file and reports per-layer
// metrics. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. README.md describes the
// workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"stackless/internal/parallel"
	"stackless/internal/tree"
)

func main() { os.Exit(run()) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts attempted and failed ops; every op is oracle-checked.
type tally struct{ attempted, failed int }

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func run() int {
	name := flag.String("workload", "", "xml-select, json-small, term-validate or multi-parallel")
	seed := flag.Int64("seed", 1, "corpus seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1: traced layer-by-layer replay (per-layer metrics)")
	perturb := flag.Bool("perturb", false, "self-test: corrupt one oracle expectation; the run must fail")
	flag.Parse()
	if flag.NArg() > 0 || *name == "" || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--perturb]")
		return 2
	}
	w, err := buildWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	exp, err := w.expectations()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *perturb {
		perturbOne(&exp[0][0])
	}
	fmt.Printf("perfbench %s seed=%d: %s, GOMAXPROCS=%d, nproc=%d\n",
		w.name, *seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	// Set-up: compile the workload's queries and make the first op, which
	// pays lazy table compilation and the product-cache fill. Repeated on
	// fresh compilations, at least 7 times and for about 1.5 s; the median
	// is reported.
	var tl tally
	cl := newCaller(w)
	var setups []float64
	var cq *compiled
	for begin := time.Now(); len(setups) < 7 || (time.Since(begin) < 1500*time.Millisecond && len(setups) < 1000); {
		t0 := time.Now()
		if cq, err = w.compileAll(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		ti, di := w.opAt(0)
		res := cl.call(cq, &w.tasks[ti], w.docs[di].data)
		setups = append(setups, time.Since(t0).Seconds())
		tl.add(check(&w.tasks[ti], &exp[ti][di], res, cl.got))
	}

	cs, err := census(w, cq, cl, exp, &tl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// The trees have served the oracle and the descriptor; dropping them
	// keeps the live heap, and so each GC cycle's cost, to the corpus bytes.
	for i := range w.docs {
		w.docs[i].tree = nil
	}
	dur := time.Duration(*seconds * float64(time.Second))
	metrics := map[string]metric{}
	if *traceFlag == 1 {
		path := fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.json", w.name, *seed)
		if err := traced(w, cq, cl, exp, &tl, cs, dur, path, metrics); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	} else {
		untraced(w, cq, cl, exp, &tl, dur, metrics)
		metrics["setup_s"] = metric{median(setups), "s"}
	}
	fmt.Printf("ops: %d attempted, %d failed, error_rate %g\n", tl.attempted, tl.failed, float64(tl.failed)/float64(tl.attempted))
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{tl.failed == 0, tl.attempted, tl.failed, metrics})
	fmt.Println(string(out))
	if tl.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops differ from the oracle\n", tl.failed, tl.attempted)
		return 1
	}
	return 0
}

// perturbOne corrupts an expectation so that the op it belongs to must
// fail the oracle check.
func perturbOne(ex *expect) {
	switch {
	case ex.wantErr:
		ex.wantErr = false
	case len(ex.matches) > 0:
		ex.matches[0].pos++
	default:
		ex.verdict = !ex.verdict
		ex.matches = append(ex.matches, match{})
	}
}

// censusStats are the workload's shape and the counts that must repeat
// exactly for a seed.
type censusStats struct {
	eventsPerOp, matchesPerOp float64
	groups, chunksPerOp       float64
	untypedErrOps             float64
}

// census makes every (task, document) call once, untimed: it checks each
// against the oracle, pins every query to the tier its workload names and
// prints the corpus descriptor.
func census(w *workload, cq *compiled, cl *caller, exp [][]expect, tl *tally) (censusStats, error) {
	var cs censusStats
	var bytes, events, maxDepth int
	labels := map[string]bool{}
	truncated := 0
	for _, d := range w.docs {
		bytes += len(d.data)
		if d.tree == nil {
			truncated++
			continue
		}
		d.tree.Walk(func(n *tree.Node, depth int) bool {
			events += 2
			maxDepth = max(maxDepth, depth)
			labels[n.Label] = true
			return true
		})
	}
	fmt.Printf("corpus: %d docs, %d bytes, %d events, max depth %d, %d distinct labels, %d truncated\n",
		len(w.docs), bytes, events, maxDepth, len(labels), truncated)
	var pinErrs []string
	ops, okOps := 0, 0
	for ti := range w.tasks {
		t := &w.tasks[ti]
		matches, groups := 0, -1
		var pipeline string
		for di, d := range w.docs {
			res := cl.call(cq, t, d.data)
			tl.add(check(t, &exp[ti][di], res, cl.got))
			ops++
			cs.eventsPerOp += float64(res.events)
			matches += len(cl.got)
			if untyped(res.err) {
				cs.untypedErrOps++
			}
			if res.err != nil {
				continue
			}
			okOps++
			chunks := res.chunks
			if t.method == mMulti {
				chunks = len(parallel.SplitPoints(res.events, w.workers)) + 1
			}
			cs.chunksPerOp += float64(chunks)
			pipeline, groups = string(res.pipeline), res.groups
			for i, s := range res.strategies {
				if s != t.tiers[i] {
					pinErrs = append(pinErrs, fmt.Sprintf("%s %q ran %s, the workload names %s", t.method, t.exprs[i], s, t.tiers[i]))
				}
			}
		}
		cs.matchesPerOp += float64(matches)
		if t.method == mMulti {
			cs.groups = float64(groups)
		}
		fmt.Printf("task %d: %s %s: tiers %v, pipeline %s, product groups %d, %.1f matches/op\n",
			ti, t.method, strings.Join(t.exprs, " "), t.tiers, pipeline, max(groups, 0), float64(matches)/float64(len(w.docs)))
	}
	cs.eventsPerOp /= float64(ops)
	cs.matchesPerOp /= float64(ops)
	cs.chunksPerOp /= float64(okOps)
	if len(pinErrs) > 0 {
		return cs, fmt.Errorf("workload drifted off its tiers:\n  %s", strings.Join(pinErrs, "\n  "))
	}
	return cs, nil
}

// untraced is the end-to-end run: a closed loop of public calls for dur.
func untraced(w *workload, cq *compiled, cl *caller, exp [][]expect, tl *tally, dur time.Duration, out map[string]metric) {
	lat := make([]time.Duration, 0, 1<<20)
	var in int64
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		ti, di := w.opAt(i)
		data := w.docs[di].data
		t0 := time.Now()
		res := cl.call(cq, &w.tasks[ti], data)
		lat = append(lat, time.Since(t0))
		in += int64(len(data))
		tl.add(check(&w.tasks[ti], &exp[ti][di], res, cl.got))
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := len(lat)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	fmt.Printf("measured: %d ops in %.3f s; latency samples %d, %d beyond p99\n",
		n, wall.Seconds(), n, n-rank(n, 0.99)-1)
	out["throughput_mb_s"] = metric{float64(in) / 1e6 / wall.Seconds(), "MB/s"}
	out["latency_p50_ms"] = metric{ms(lat[rank(n, 0.50)]), "ms"}
	out["latency_p99_ms"] = metric{ms(lat[rank(n, 0.99)]), "ms"}
	out["alloc_kb_per_op"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n), "KiB"}
}

// rank is the nearest-rank index of quantile q among n sorted samples.
func rank(n int, q float64) int {
	return max(int(math.Ceil(q*float64(n)))-1, 0)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
