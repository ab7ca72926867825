package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"stackless"
	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/parallel"
	"stackless/internal/product"
	"stackless/internal/stackeval"
)

// The traced run replays each op one layer at a time through the modules'
// exported functions, with a span around every call into a layer. Spans
// stay in memory and are written out as JSON when the run ends.

// span is one timed call into a layer. Units is the work it did: events,
// bytes (scan), matches (emit), machines (build) or calls.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`     // replayed op number; -1 for set-up probes
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Units  int64  `json:"units"`
}

type tracer struct {
	epoch time.Time
	op    int
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Op: t.op})
	s := &t.spans[len(t.spans)-1]
	s.Start = int64(time.Since(t.epoch))
	return s.ID
}

func (t *tracer) end(id int, units int64) {
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	s.Units = units
}

// selfTimes returns every span's duration minus the part its children
// cover. The replay runs children one after another, so they never
// overlap and the covered part is the sum of their durations.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// Probe span names. Probes run outside any op root: set-up compiles and
// measurements that need a counterfactual or the heap counters.
const (
	probeRoot = "probe"
	pCompile  = "stackless.compile"
	pCall     = "stackless.call"
	pScan     = "probe.scan"
	pBuffer   = "probe.buffer"
	pCode     = "probe.code"
	pSeq      = "probe.sequential"
)

// replayer owns the replay's reused buffers.
type replayer struct {
	w        *workload
	tr       *tracer
	cl       *caller
	cq       *compiled
	ans      map[string]*classify.Analysis
	events   []encoding.Event
	coded    []encoding.CodedEvent
	hits     []int32
	perQuery [][]match
	loose    int

	// Heap counters from the probes.
	scanMallocs, scanEvents uint64
	bufferBytes, bufferOps  uint64
	callBytes, calls        uint64
	seqNs, parNs            int64
	emitCore                func(core.Match)
	collect                 func(q int) func(core.Match)
}

func newReplayer(w *workload, cq *compiled, cl *caller, tr *tracer) (*replayer, error) {
	r := &replayer{w: w, tr: tr, cl: cl, cq: cq, ans: map[string]*classify.Analysis{}}
	for _, t := range w.tasks {
		for _, e := range t.exprs {
			if r.ans[e] == nil {
				d, err := w.oracleDFA(e)
				if err != nil {
					return nil, err
				}
				r.ans[e] = classify.Analyze(d)
			}
		}
	}
	r.perQuery = make([][]match, len(w.tasks[0].exprs))
	r.emitCore = func(m core.Match) { cl.got = append(cl.got, match{0, m.Pos, m.Depth, m.Label}) }
	r.collect = func(q int) func(core.Match) {
		return func(m core.Match) { r.perQuery[q] = append(r.perQuery[q], match{q, m.Pos, m.Depth, m.Label}) }
	}
	return r, nil
}

// build constructs the machine the public call picks, in the same order:
// registerless, then stackless, then the pushdown fallback.
func build(an *classify.Analysis, m method, term bool) (core.Evaluator, stackless.Strategy) {
	switch m {
	case mEL:
		if term {
			if ev, err := core.BlindRegisterlessEL(an); err == nil {
				return ev, stackless.Registerless
			}
			if ev, err := core.BlindStacklessQL(an); err == nil {
				return core.ELFromQL(ev), stackless.Stackless
			}
		} else {
			if ev, err := core.RegisterlessEL(an); err == nil {
				return ev, stackless.Registerless
			}
			if ev, err := core.StacklessQL(an); err == nil {
				return core.ELFromQL(ev), stackless.Stackless
			}
		}
		return stackeval.EL(an.D), stackless.Stack
	case mAL:
		if term {
			if ev, err := core.BlindRegisterlessAL(an); err == nil {
				return ev, stackless.Registerless
			}
			if ev, err := core.BlindStacklessQL(an); err == nil {
				return core.ALFromQL(ev), stackless.Stackless
			}
		} else {
			if ev, err := core.RegisterlessAL(an); err == nil {
				return ev, stackless.Registerless
			}
			if ev, err := core.StacklessQL(an); err == nil {
				return core.ALFromQL(ev), stackless.Stackless
			}
		}
		return stackeval.AL(an.D), stackless.Stack
	}
	if term {
		if tag, err := core.BlindRegisterlessQL(an); err == nil {
			return tag.Evaluator(), stackless.Registerless
		}
		if ev, err := core.BlindStacklessQL(an); err == nil {
			return ev, stackless.Stackless
		}
	} else {
		if tag, err := core.RegisterlessQL(an); err == nil {
			return tag.Evaluator(), stackless.Registerless
		}
		if ev, err := core.StacklessQL(an); err == nil {
			return ev, stackless.Stackless
		}
	}
	return stackeval.QL(an.D), stackless.Stack
}

// source is the op's guarded scanner over data, as the public call builds it.
func (r *replayer) source(data []byte) encoding.Source {
	rd := &r.cl.rd
	rd.Reset(data)
	switch r.w.format {
	case fXML:
		return encoding.CheckBalance(encoding.NewXMLScanner(rd))
	case fJSON:
		return encoding.CheckBalance(encoding.NewJSONSource(rd))
	}
	return encoding.CheckBalance(encoding.NewTermScanner(rd))
}

// scan drains the op's source into r.events.
func (r *replayer) scan(data []byte) error {
	src := r.source(data)
	r.events = r.events[:0]
	for {
		e, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		r.events = append(r.events, e)
	}
}

// code runs a Batcher with a fresh Coder over the scanned events, keeping
// the coded stream.
func (r *replayer) code(a *alphabet.Alphabet) {
	b := encoding.NewBatcher(encoding.NewSliceSource(r.events), alphabet.NewCoder(a), encoding.DefaultBatch)
	r.coded = r.coded[:0]
	for {
		batch, _, err := b.NextBatch()
		r.coded = append(r.coded, batch...)
		if err != nil {
			return
		}
	}
}

// op replays op number i and checks it against the oracle like a real op.
func (r *replayer) op(i int, exp [][]expect, tl *tally) {
	ti, di := r.w.opAt(i)
	t := &r.w.tasks[ti]
	data := r.w.docs[di].data
	r.tr.op = i
	r.cl.got = r.cl.got[:0]
	var res result
	if t.method == mMulti {
		res = r.multiOp(t, data)
	} else {
		res = r.singleOp(t, data)
	}
	tl.add(check(t, &exp[ti][di], res, r.cl.got))
	if i%4 == 0 {
		r.probes(t, data)
	}
}

// singleOp is build → scan → code → step | recognize | earliest → emit.
func (r *replayer) singleOp(t *task, data []byte) (res result) {
	tr := r.tr
	root := tr.begin("op", -1)
	defer tr.end(root, 0)
	b := tr.begin("core.build", root)
	ev, tier := build(r.ans[t.exprs[0]], t.method, r.w.format != fXML)
	tr.end(b, 1)
	res.strategies = []stackless.Strategy{tier}
	s := tr.begin("encoding.scan", root)
	err := r.scan(data)
	tr.end(s, int64(len(data)))
	if err != nil {
		res.err = err
		return res
	}
	n := int64(len(r.events))
	recognize := t.method == mEL || t.method == mAL
	layer := "core.step"
	if recognize {
		layer = "core.recognize"
	}
	if tier == stackless.Stack {
		layer = "stackeval.select"
	}
	be, batched := ev.(core.BatchEvaluator)
	switch {
	case t.method == mEarliest:
		e := tr.begin("core.earliest", root)
		_, res.err = core.SelectEarliest(ev, encoding.NewSliceSource(r.events), r.emitCore)
		tr.end(e, n)
	case !batched && recognize:
		e := tr.begin(layer, root)
		res.verdict, res.err = core.Recognize(ev, encoding.NewSliceSource(r.events))
		tr.end(e, n)
	case !batched:
		e := tr.begin(layer, root)
		_, res.err = core.Select(ev, encoding.NewSliceSource(r.events), r.emitCore)
		tr.end(e, n)
	default:
		c := tr.begin("alphabet.code", root)
		r.code(be.CodeAlphabet())
		tr.end(c, n)
		e := tr.begin(layer, root)
		be.Reset()
		r.hits = r.hits[:0]
		for off := 0; off < len(r.coded); off += encoding.DefaultBatch {
			batch := r.coded[off:min(off+encoding.DefaultBatch, len(r.coded))]
			if recognize {
				be.StepBatch(batch)
				continue
			}
			from := len(r.hits)
			r.hits = be.SelectBatch(batch, r.hits)
			for k := from; k < len(r.hits); k++ {
				r.hits[k] += int32(off)
			}
		}
		res.verdict = be.Accepting()
		tr.end(e, n)
		if !recognize {
			m := tr.begin("core.emit", root)
			r.emitHits()
			tr.end(m, int64(len(r.hits)))
		}
	}
	return res
}

// emitHits turns global hit indices into matches, as the coded driver
// does, and delivers them to the caller's callback.
func (r *replayer) emitHits() {
	pos, depth, next := -1, 0, 0
	for j := 0; j < len(r.events) && next < len(r.hits); j++ {
		if r.events[j].Kind != encoding.Open {
			depth--
			continue
		}
		pos++
		depth++
		if int(r.hits[next]) == j {
			next++
			r.emitCore(core.Match{Pos: pos, Depth: depth, Label: r.events[j].Label})
		}
	}
}

// multiOp is build → plan → scan+buffer → parallel select (product groups,
// then loose members) → emit. The public call runs the groups and loose
// members concurrently; the replay runs them one after another.
func (r *replayer) multiOp(t *task, data []byte) (res result) {
	tr := r.tr
	root := tr.begin("op", -1)
	defer tr.end(root, 0)
	b := tr.begin("core.build", root)
	evs := make([]core.Evaluator, len(t.exprs))
	res.strategies = make([]stackless.Strategy, len(t.exprs))
	for i, e := range t.exprs {
		evs[i], res.strategies[i] = build(r.ans[e], mSelect, false)
		evs[i].Reset()
	}
	tr.end(b, int64(len(evs)))
	p := tr.begin("product.plan", root)
	plan := product.BuildPlan(evs, product.Shared(), 0, nil)
	tr.end(p, 1)
	r.loose = len(plan.Loose)
	s := tr.begin("parallel.buffer", root)
	events, err := encoding.ReadAll(r.source(data))
	tr.end(s, int64(len(events)))
	if err != nil {
		res.err = err
		return res
	}
	n := int64(len(events))
	for q := range r.perQuery {
		r.perQuery[q] = r.perQuery[q][:0]
	}
	pool, workers := parallel.Shared(), r.w.workers
	for _, g := range plan.Groups {
		s := tr.begin("product.select", root)
		product.SelectChunks(pool, g.Machine, events, workers, nil, func(bit int, m core.Match) {
			q := g.Queries[bit]
			r.perQuery[q] = append(r.perQuery[q], match{q, m.Pos, m.Depth, m.Label})
		})
		tr.end(s, n)
	}
	for _, q := range plan.Loose {
		s := tr.begin("parallel.select", root)
		if cm, ok := evs[q].(core.Chunkable); ok {
			parallel.Select(pool, cm, events, workers, r.collect(q))
		} else {
			_, _ = core.SelectCoded(evs[q], encoding.NewSliceSource(events), r.collect(q))
		}
		tr.end(s, n)
	}
	m := tr.begin("core.emit", root)
	next := make([]int, len(r.perQuery))
	for {
		best := -1
		for q := range r.perQuery {
			if next[q] < len(r.perQuery[q]) && (best < 0 || r.perQuery[q][next[q]].pos < r.perQuery[best][next[best]].pos) {
				best = q
			}
		}
		if best < 0 {
			break
		}
		r.cl.got = append(r.cl.got, r.perQuery[best][next[best]])
		next[best]++
	}
	tr.end(m, int64(len(r.cl.got)))
	return res
}

// probes measure, outside the op, what needs heap counters or a
// counterfactual: the per-call overhead on a one-element document, the
// scanner's allocations, and for multi-parallel the buffer's bytes, the
// coding of each machine's alphabet and the sequential baseline of every
// chunk-parallel member.
func (r *replayer) probes(t *task, data []byte) {
	tr := r.tr
	root := tr.begin(probeRoot, -1)
	defer tr.end(root, 0)
	var m0, m1 runtime.MemStats
	const calls = 2
	runtime.ReadMemStats(&m0)
	s := tr.begin(pCall, root)
	for k := 0; k < calls; k++ {
		r.cl.call(r.cq, t, r.w.unit)
	}
	tr.end(s, calls)
	runtime.ReadMemStats(&m1)
	r.callBytes += m1.TotalAlloc - m0.TotalAlloc
	r.calls += calls

	runtime.ReadMemStats(&m0)
	s = tr.begin(pScan, root)
	src, n := r.source(data), uint64(0)
	for {
		if _, err := src.Next(); err != nil {
			break
		}
		n++
	}
	tr.end(s, int64(len(data)))
	runtime.ReadMemStats(&m1)
	r.scanMallocs += m1.Mallocs - m0.Mallocs
	r.scanEvents += n
	if t.method != mMulti {
		return
	}

	runtime.ReadMemStats(&m0)
	s = tr.begin(pBuffer, root)
	events, err := encoding.ReadAll(r.source(data))
	tr.end(s, int64(len(events)))
	runtime.ReadMemStats(&m1)
	r.bufferBytes += m1.TotalAlloc - m0.TotalAlloc
	r.bufferOps++
	if err != nil {
		return
	}
	evs := make([]core.Evaluator, len(t.exprs))
	for i, e := range t.exprs {
		evs[i], _ = build(r.ans[e], mSelect, false)
	}
	plan := product.BuildPlan(evs, product.Shared(), 0, nil)
	r.events = events
	s = tr.begin(pCode, root)
	for _, g := range plan.Groups {
		r.code(g.Machine.Alphabet())
	}
	for _, q := range plan.Loose {
		if be, ok := evs[q].(core.BatchEvaluator); ok {
			r.code(be.CodeAlphabet())
		}
	}
	tr.end(s, int64(len(events)*(len(plan.Groups)+len(plan.Loose))))
	// The speedup compares the loose members' sequential coded select with
	// their chunk-parallel select on the same machine and events.
	for _, q := range plan.Loose {
		cm, ok := evs[q].(core.Chunkable)
		if !ok {
			continue
		}
		s = tr.begin(pSeq, root)
		_, _ = core.SelectCoded(evs[q], encoding.NewSliceSource(events), func(core.Match) {})
		tr.end(s, int64(len(events)))
		seq := tr.spans[s].End - tr.spans[s].Start
		t0 := time.Now()
		parallel.Select(parallel.Shared(), cm, events, r.w.workers, func(core.Match) {})
		r.seqNs += seq
		r.parNs += int64(time.Since(t0))
	}
}

// traced is the --trace 1 run: an untraced reference phase, then the
// replay, each for half of dur. It fills out with the per-layer metrics.
func traced(w *workload, cq *compiled, cl *caller, exp [][]expect, tl *tally, cs censusStats, dur time.Duration, path string, out map[string]metric) error {
	tr := &tracer{epoch: time.Now(), op: -1, spans: make([]span, 0, 1<<16)}
	// Compile probe: each distinct expression, three times.
	root := tr.begin(probeRoot, -1)
	for e := range cq.queries {
		for k := 0; k < 3; k++ {
			s := tr.begin(pCompile, root)
			if _, err := w.compile(e, w.labels); err != nil {
				return err
			}
			tr.end(s, 1)
		}
	}
	tr.end(root, 0)

	var ref []time.Duration
	start := time.Now()
	for i := 0; time.Since(start) < dur/2; i++ {
		ti, di := w.opAt(i)
		t0 := time.Now()
		res := cl.call(cq, &w.tasks[ti], w.docs[di].data)
		ref = append(ref, time.Since(t0))
		tl.add(check(&w.tasks[ti], &exp[ti][di], res, cl.got))
	}

	r, err := newReplayer(w, cq, cl, tr)
	if err != nil {
		return err
	}
	ops := 0
	start = time.Now()
	for ; time.Since(start) < dur/2; ops++ {
		r.op(ops, exp, tl)
	}

	self := tr.selfTimes()
	layers := map[string]*agg{}
	var opTimes []time.Duration
	var opNs, unattributed int64
	for i, s := range tr.spans {
		a := layers[s.Name]
		if a == nil {
			a = &agg{}
			layers[s.Name] = a
		}
		a.self += self[i]
		a.units += s.Units
		a.count++
		if s.Name == "op" {
			opTimes = append(opTimes, time.Duration(s.End-s.Start))
			opNs += s.End - s.Start
			unattributed += self[i]
		}
	}
	perUnit := func(name string, scale float64) float64 {
		if a := layers[name]; a != nil && a.units > 0 {
			return float64(a.self) / float64(a.units) / scale
		}
		return 0
	}
	perCount := func(name string, scale float64) float64 {
		if a := layers[name]; a != nil && a.count > 0 {
			return float64(a.self) / float64(a.count) / scale
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	scan := perUnit("encoding.scan", 1)
	if w.tasks[0].method == mMulti {
		scan = perUnit(pScan, 1)
	}
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	set("stackless.compile_ms_per_query", "ms", perCount(pCompile, 1e6))
	set("stackless.call_overhead_us", "us", perUnit(pCall, 1e3))
	set("stackless.call_overhead_kb", "KiB", ratio(float64(r.callBytes)/1024, float64(r.calls)))
	set("core.build_us_per_query", "us", perUnit("core.build", 1e3))
	set("encoding.scan_ns_per_byte", "ns/byte", scan)
	set("encoding.scan_allocs_per_event", "allocs/event", ratio(float64(r.scanMallocs), float64(r.scanEvents)))
	code := perUnit("alphabet.code", 1)
	if w.tasks[0].method == mMulti {
		code = perUnit(pCode, 1)
	}
	set("alphabet.code_ns_per_event", "ns/event", code)
	set("core.step_ns_per_event", "ns/event", perUnit("core.step", 1))
	set("core.emit_ns_per_match", "ns/match", perUnit("core.emit", 1))
	set("core.recognize_ns_per_event", "ns/event", perUnit("core.recognize", 1))
	set("core.earliest_ns_per_event", "ns/event", perUnit("core.earliest", 1))
	set("stackeval.select_ns_per_event", "ns/event", perUnit("stackeval.select", 1))
	set("product.plan_us", "us", perCount("product.plan", 1e3))
	set("product.step_ns_per_event", "ns/event", perUnit("product.select", 1))
	set("parallel.buffer_ns_per_event", "ns/event", perUnit("parallel.buffer", 1))
	set("parallel.buffer_kb_per_op", "KiB", ratio(float64(r.bufferBytes)/1024, float64(r.bufferOps)))
	set("parallel.select_ns_per_event", "ns/event", perUnit("parallel.select", 1))
	set("parallel.speedup", "x", ratio(float64(r.seqNs), float64(r.parNs)))
	set("ops.events_per_op", "count", cs.eventsPerOp)
	set("ops.matches_per_op", "count", cs.matchesPerOp)
	set("product.groups", "count", cs.groups)
	set("product.loose_members", "count", float64(r.loose))
	set("parallel.chunks_per_op", "count", cs.chunksPerOp)
	set("encoding.untyped_error_ops", "count", cs.untypedErrOps)
	refMean, opMean := meanRounds(ref, w.round()), meanRounds(opTimes, w.round())
	overhead := 100 * (opMean/refMean - 1)
	unattributedPct := 100 * ratio(float64(unattributed), float64(opNs))
	set("trace.overhead_pct", "%", overhead)
	set("trace.unattributed_pct", "%", unattributedPct)

	printLayers(w.name, layers, opNs, ops)
	fmt.Printf("  trace.overhead_pct %.2f (traced %.3f ms/op vs untraced %.3f ms/op), trace.unattributed_pct %.3f\n",
		overhead, opMean/1e6, refMean/1e6, unattributedPct)
	if err := writeSpans(path, w.name, tr.spans); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	return nil
}

// meanRounds is the mean op time over the whole rounds of the op rotation
// (every op when not one round completed), so the traced and untraced
// phases average the same mix of tasks and documents.
func meanRounds(ds []time.Duration, round int) float64 {
	if n := len(ds) / round * round; n > 0 {
		ds = ds[:n]
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds))
}

// agg sums the spans of one name.
type agg struct {
	self, units int64
	count       int
}

// printLayers prints the self-time table of the replayed ops, with the
// unattributed part of the op spans, then the probes.
func printLayers(workload string, layers map[string]*agg, opNs int64, ops int) {
	var names []string
	for n := range layers {
		if n != "op" && n != probeRoot {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Printf("traced %s: %d ops, %.3f ms per op\n", workload, ops, float64(opNs)/1e6/float64(max(ops, 1)))
	fmt.Printf("  %-22s %8s %12s %8s\n", "layer", "spans", "self ms", "share")
	row := func(n string, a *agg) {
		fmt.Printf("  %-22s %8d %12.3f %7.2f%%\n", n, a.count, float64(a.self)/1e6, 100*float64(a.self)/float64(opNs))
	}
	for _, n := range names {
		if !isProbe(n) {
			row(n, layers[n])
		}
	}
	row("(unattributed)", layers["op"])
	fmt.Println("  probes (outside the ops; share of traced op time):")
	for _, n := range names {
		if isProbe(n) {
			row(n, layers[n])
		}
	}
}

func isProbe(name string) bool {
	switch name {
	case pCompile, pCall, pScan, pBuffer, pCode, pSeq:
		return true
	}
	return false
}

func writeSpans(path, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
