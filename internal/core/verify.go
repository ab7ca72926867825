package core

import (
	"fmt"
	"strings"

	"stackless/internal/classify"
)

// Verification surface of the compiled machines (internal/tablecheck).
//
// The compiled tables of DESIGN.md §11 are the artifacts the hot path
// actually executes, so they get their own static-analysis layer: the
// accessors below expose the live backing arrays (never copies — the
// corruption tests in internal/tablecheck flip entries in place), the
// CompileHook lets a debug build verify every table the moment it is
// built, and Snapshotter lets the bounded-equivalence search save and
// restore full runtime configurations instead of replaying event prefixes.

// Pipeline identifies which event pipeline an evaluation ran. Every run
// takes the compiled symbol-coded batch path; the type stays so that
// reports (Stats, MultiStats) keep naming it. The underlying type is
// string so formatting (%s) and emptiness checks keep working.
type Pipeline string

// PipelineCoded is the pipeline of DESIGN.md §11: dense transition tables
// over symbol-coded batches.
const PipelineCoded Pipeline = "coded"

// CompileHook, when non-nil, is called with every machine whose compiled
// form was just built: *TagDFA (after the lazy table build, the synopsis
// tables of the registerless EL and AL machines included),
// *StacklessEvaluator (after construction), and *DRA (per Evaluator call;
// its table is caller-built). Release builds leave it nil and pay one nil
// check per compilation — never per event. internal/tablecheck installs a
// hook that statically verifies each table, so tests catch a malformed
// compilation at the source instead of as a downstream wrong answer.
var CompileHook func(m any)

// compileHook invokes CompileHook if installed.
func compileHook(m any) {
	if h := CompileHook; h != nil {
		h(m)
	}
}

// SavedConfig is an opaque snapshot of an evaluator's runtime
// configuration, produced by Snapshotter.SaveConfig. Key is a canonical
// encoding of the configuration, used by the bounded-equivalence search to
// deduplicate joint states; configurations with equal keys behave
// identically on every future event. Parked reports that the configuration
// is absorbing with constant observables — every future event leaves
// Accepting and selection behavior unchanged — so a search may stop
// extending prefixes once both sides of a comparison are parked.
type SavedConfig interface {
	Key() string
	Parked() bool
}

// Snapshotter is implemented by evaluators whose complete runtime
// configuration can be captured and restored. RestoreConfig must deep-copy
// any slice-backed state (register files, record stacks) in both
// directions, so a snapshot stays valid however the machine runs on.
type Snapshotter interface {
	Evaluator
	SaveConfig() SavedConfig
	RestoreConfig(SavedConfig)
}

// Exported views of the cSel entry layout (stackless.go), so the table
// verifier can decompose entries the way the kernels do.
const (
	// SelAccBit marks an open-column entry whose target state accepts.
	SelAccBit = selAccBit
	// SelPushBit marks an open-column entry that leaves the source SCC.
	SelPushBit = selPushBit
	// SelStateMask extracts the target state from an open-column entry.
	SelStateMask = selStateMask
)

// --- TagDFA ---

// CompiledTable builds (if needed) and returns the live compiled form: the
// flat (n+1)×2(k+1) transition table, the acceptance vector, the row
// stride 2(k+1) and the dead-state id n. The slices are the backing arrays
// the batch kernels index, not copies.
func (t *TagDFA) CompiledTable() (tab []int32, acc []bool, stride, dead int32) {
	return t.compiled()
}

// CompiledEarliest builds (if needed) and returns the live earliest-
// decision flags, one per compiled row including the dead row (DESIGN.md
// §14). The slice is the backing array NoFutureMatches reads, not a copy.
func (t *TagDFA) CompiledEarliest() []int32 {
	t.compiled()
	return t.cdec
}

// tagConfig is the saved configuration of a tagEvaluator.
type tagConfig struct {
	state    int
	poisoned bool
}

// Key implements SavedConfig.
func (c tagConfig) Key() string { return fmt.Sprintf("t%d,%v", c.state, c.poisoned) }

// Parked implements SavedConfig.
func (c tagConfig) Parked() bool { return c.poisoned }

// SaveConfig implements Snapshotter.
func (ev *tagEvaluator) SaveConfig() SavedConfig {
	return tagConfig{state: ev.state, poisoned: ev.poisoned}
}

// RestoreConfig implements Snapshotter.
func (ev *tagEvaluator) RestoreConfig(c SavedConfig) {
	tc := c.(tagConfig)
	ev.state, ev.poisoned = tc.state, tc.poisoned
}

// Machine returns the underlying automaton (verification).
func (ev *tagEvaluator) Machine() *TagDFA { return ev.t }

// --- StacklessEvaluator ---

// CompiledTables returns the live compiled tables of the Lemma 3.8
// machine: delta (n×(k+1), unknown column poisoned), the fused selection
// table sel (n×2(k+1)), the backtrack tables back ((k+1)×n; nil when
// blind) and backAny (n; nil otherwise), and the SCC component vector.
func (ev *StacklessEvaluator) CompiledTables() (delta, sel, back, backAny, comp []int32) {
	return ev.cDelta, ev.cSel, ev.cBack, ev.cBackAny, ev.cComp
}

// CompiledEarliest returns the live earliest-decision flags, one per state
// (DESIGN.md §14) — the backing array NoFutureMatches reads, not a copy.
func (ev *StacklessEvaluator) CompiledEarliest() []int32 { return ev.cDec }

// Analysis returns the classification the machine was compiled from.
func (ev *StacklessEvaluator) Analysis() *classify.Analysis { return ev.an }

// Blind reports whether the machine consumes the term encoding.
func (ev *StacklessEvaluator) Blind() bool { return ev.blind }

// stacklessConfig is the saved configuration of a StacklessEvaluator.
type stacklessConfig struct {
	state    int
	depth    int
	records  []record
	poisoned bool
}

// Key implements SavedConfig.
func (c stacklessConfig) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "s%d@%d,%v", c.state, c.depth, c.poisoned)
	for _, r := range c.records {
		fmt.Fprintf(&b, ";%d@%d", r.state, r.depth)
	}
	return b.String()
}

// Parked implements SavedConfig.
func (c stacklessConfig) Parked() bool { return c.poisoned }

// SaveConfig implements Snapshotter.
func (ev *StacklessEvaluator) SaveConfig() SavedConfig {
	c := stacklessConfig{state: ev.state, depth: ev.depth, poisoned: ev.poisoned}
	if len(ev.records) > 0 {
		c.records = append([]record(nil), ev.records...)
	}
	return c
}

// RestoreConfig implements Snapshotter. The record stack is copied again on
// the way in: the machine appends to it, and an append must never reach the
// snapshot's backing array.
func (ev *StacklessEvaluator) RestoreConfig(c SavedConfig) {
	sc := c.(stacklessConfig)
	ev.state, ev.depth, ev.poisoned = sc.state, sc.depth, sc.poisoned
	ev.records = append(ev.records[:0:0], sc.records...)
}

// --- DRA ---

// draConfig is the saved configuration of a draEvaluator.
type draConfig struct {
	state    int
	depth    int
	regs     []int
	poisoned bool
}

// Key implements SavedConfig.
func (c draConfig) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "d%d@%d,%v", c.state, c.depth, c.poisoned)
	for _, v := range c.regs {
		fmt.Fprintf(&b, ";%d", v)
	}
	return b.String()
}

// Parked implements SavedConfig.
func (c draConfig) Parked() bool { return c.poisoned }

// SaveConfig implements Snapshotter.
func (ev *draEvaluator) SaveConfig() SavedConfig {
	c := draConfig{state: ev.cfg.State, depth: ev.cfg.Depth, poisoned: ev.poisoned}
	c.regs = append([]int(nil), ev.cfg.Regs...)
	return c
}

// RestoreConfig implements Snapshotter. Segment-simulation state is
// cleared: snapshots capture sequential configurations only.
func (ev *draEvaluator) RestoreConfig(c SavedConfig) {
	dc := c.(draConfig)
	ev.cfg.State, ev.cfg.Depth, ev.poisoned = dc.state, dc.depth, dc.poisoned
	ev.cfg.Regs = append(ev.cfg.Regs[:0:0], dc.regs...)
	ev.seg = false
	ev.stale = 0
}

// Machine returns the underlying automaton (verification).
func (ev *draEvaluator) Machine() *DRA { return ev.d }
