package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchText = `goos: linux
goarch: amd64
pkg: stackless
cpu: Canned CPU @ 2.00GHz
BenchmarkSelectParallelStackless/events=100000/workers=1-4         	     100	   2503951 ns/op	        25.04 ns/event
BenchmarkSelectParallelStackless/events=100000/workers=4-4         	     100	   5021342 ns/op	        50.21 ns/event
BenchmarkSelectXML-4                                               	     100	   1500000 ns/op	       133.00 MB/s
PASS
ok  	stackless	1.234s
`

func TestParseBench(t *testing.T) {
	var stderr bytes.Buffer
	snap, err := parseBench(strings.NewReader(benchText), &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected stderr: %s", stderr.String())
	}
	if snap.Context["goos"] != "linux" || snap.Context["cpu"] != "Canned CPU @ 2.00GHz" || snap.Context["gomaxprocs"] != "4" {
		t.Errorf("context = %v", snap.Context)
	}
	if len(snap.Results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(snap.Results))
	}
	r := snap.Results[0]
	if r.Name != "BenchmarkSelectParallelStackless/events=100000/workers=1" {
		t.Errorf("name = %q (proc suffix must be trimmed)", r.Name)
	}
	if r.Runs != 100 || r.Metrics["ns/op"] != 2503951 || r.Metrics["ns/event"] != 25.04 {
		t.Errorf("result = %+v", r)
	}
	if snap.Results[2].Metrics["MB/s"] != 133 {
		t.Errorf("MB/s = %v", snap.Results[2].Metrics)
	}
}

// TestParseBenchMergesRepeatedRuns: `go test -count N` emits the same
// benchmark name N times; the snapshot keeps one entry with the median
// value per metric and the summed run count.
func TestParseBenchMergesRepeatedRuns(t *testing.T) {
	input := `goos: linux
BenchmarkX/coded-4   100   2000 ns/op   20.00 ns/event   100 MB/s
BenchmarkX/coded-4   100   1800 ns/op   18.00 ns/event   133 MB/s
BenchmarkX/coded-4   100   2400 ns/op   24.00 ns/event   90 MB/s
`
	var stderr bytes.Buffer
	snap, err := parseBench(strings.NewReader(input), &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Results) != 1 {
		t.Fatalf("parsed %d results, want 1 merged", len(snap.Results))
	}
	r := snap.Results[0]
	if r.Runs != 300 {
		t.Errorf("runs = %d, want 300", r.Runs)
	}
	if r.Metrics["ns/op"] != 2000 || r.Metrics["ns/event"] != 20 {
		t.Errorf("cost metrics not median-merged: %v", r.Metrics)
	}
	if r.Metrics["MB/s"] != 100 {
		t.Errorf("throughput not median-merged: %v", r.Metrics)
	}
}

func TestParseBenchSkipsMalformed(t *testing.T) {
	var stderr bytes.Buffer
	snap, err := parseBench(strings.NewReader("BenchmarkBroken 12\nBenchmarkAlsoBroken x 1 ns/op\n"), &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Results) != 0 {
		t.Errorf("malformed lines produced results: %+v", snap.Results)
	}
	if got := strings.Count(stderr.String(), "skipping malformed line"); got != 2 {
		t.Errorf("stderr reports %d skips, want 2:\n%s", got, stderr.String())
	}
}

// canned builds a snapshot with the given ns/event value per name.
func canned(values map[string]float64) Snapshot {
	s := Snapshot{Context: map[string]string{}}
	for name, v := range values {
		s.Results = append(s.Results, Result{Name: name, Runs: 100,
			Metrics: map[string]float64{"ns/op": v * 1000, "ns/event": v}})
	}
	return s
}

func TestCompareVerdicts(t *testing.T) {
	base := canned(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100, "BenchmarkGone": 40})
	fresh := canned(map[string]float64{
		"BenchmarkA":   110, // +10%: within 25% tolerance
		"BenchmarkB":   140, // +40%: regression
		"BenchmarkNew": 10,
	})
	var out bytes.Buffer
	if got := compare(base, fresh, 0.25, &out); got != 1 {
		t.Fatalf("compare found %d regressions, want 1:\n%s", got, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"ok    BenchmarkA ns/event 100 -> 110 (+10.0%)",
		"REGR  BenchmarkB ns/event 100 -> 140 (+40.0%)",
		"new   BenchmarkNew (not in snapshot)",
		"gone  BenchmarkGone (in snapshot, not in fresh run)",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestCompareImprovementNeverFails(t *testing.T) {
	base := canned(map[string]float64{"BenchmarkA": 100})
	fresh := canned(map[string]float64{"BenchmarkA": 10})
	var out bytes.Buffer
	if got := compare(base, fresh, 0.0, &out); got != 0 {
		t.Fatalf("10x improvement flagged as regression:\n%s", out.String())
	}
}

func TestCompareBoundaryExactTolerance(t *testing.T) {
	base := canned(map[string]float64{"BenchmarkA": 100})
	fresh := canned(map[string]float64{"BenchmarkA": 125})
	var out bytes.Buffer
	if got := compare(base, fresh, 0.25, &out); got != 0 {
		t.Fatalf("exactly-at-tolerance flagged as regression:\n%s", out.String())
	}
}

func TestComparePrefersNsPerEvent(t *testing.T) {
	// ns/op regressed wildly but ns/event held: per-event cost is the
	// contract (the runner's ns/op scales with the document size).
	base := Snapshot{Results: []Result{{Name: "BenchmarkA", Runs: 100,
		Metrics: map[string]float64{"ns/op": 1000, "ns/event": 50}}}}
	fresh := Snapshot{Results: []Result{{Name: "BenchmarkA", Runs: 100,
		Metrics: map[string]float64{"ns/op": 9000, "ns/event": 51}}}}
	var out bytes.Buffer
	if got := compare(base, fresh, 0.25, &out); got != 0 {
		t.Fatalf("ns/event within tolerance but flagged:\n%s", out.String())
	}
}

func TestRunJSONMode(t *testing.T) {
	var out, stderr bytes.Buffer
	if code := run(nil, strings.NewReader(benchText), &out, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var snap Snapshot
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(snap.Results) != 3 {
		t.Errorf("round-trip lost results: %d", len(snap.Results))
	}
}

func TestRunCompareMode(t *testing.T) {
	dir := t.TempDir()
	snapFile := filepath.Join(dir, "base.json")
	var base bytes.Buffer
	if code := run(nil, strings.NewReader(benchText), &base, os.Stderr); code != 0 {
		t.Fatal("snapshot run failed")
	}
	if err := os.WriteFile(snapFile, base.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Same run against its own snapshot: no regression, exit 0.
	var out, stderr bytes.Buffer
	if code := run([]string{"-compare", snapFile}, strings.NewReader(benchText), &out, &stderr); code != 0 {
		t.Fatalf("self-compare exit %d:\n%s%s", 1, out.String(), stderr.String())
	}
	if !strings.Contains(out.String(), "ok: no regression") {
		t.Errorf("missing summary:\n%s", out.String())
	}

	// A 2x slower run must fail with exit 1.
	slow := strings.ReplaceAll(benchText, "25.04 ns/event", "55.00 ns/event")
	out.Reset()
	if code := run([]string{"-compare", snapFile, "-tolerance", "0.25"}, strings.NewReader(slow), &out, &stderr); code != 1 {
		t.Fatalf("regressed run exited %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL: 1 benchmark(s) regressed") {
		t.Errorf("missing FAIL summary:\n%s", out.String())
	}

	// Missing snapshot file: usage error, exit 2.
	if code := run([]string{"-compare", filepath.Join(dir, "absent.json")}, strings.NewReader(benchText), &out, &stderr); code != 2 {
		t.Fatalf("missing snapshot exited %d, want 2", code)
	}
}

// TestParseBenchSingleProc: the bench runner appends no -N suffix at
// GOMAXPROCS 1, which the snapshot's context records as "1".
func TestParseBenchSingleProc(t *testing.T) {
	snap, err := parseBench(strings.NewReader("BenchmarkX/workers=1   100   2000 ns/op\n"), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Context["gomaxprocs"] != "1" || snap.Results[0].Name != "BenchmarkX/workers=1" {
		t.Fatalf("context %v, results %+v", snap.Context, snap.Results)
	}
}
