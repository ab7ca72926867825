// Package allocfree exercises the allocfree analyzer: plain kernels must
// not reach heap allocations on any live path, directly or through
// package-local helpers; the caller-buffer append idiom and annotated
// sites are exempt.
package allocfree

type src interface{ Next() (int, bool) }

type stringer interface{ String() string }

type item struct{ v int }

// kMake allocates scratch inside its per-event loop.
//
//treelint:plain
func kMake(s src) int {
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			return n
		}
		buf := make([]int, 4) // want "make in the per-event loop"
		n += len(buf)
	}
}

// kSetup allocates once before the loop: still banned, but reported as
// run-path, not per-event.
//
//treelint:plain
func kSetup(s src) int {
	buf := make([]int, 8) // want "make on the run path"
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			return n + len(buf)
		}
		n++
	}
}

// kCallerBuffer is the §11 idiom: append into the caller's reusable
// buffer. Clean.
//
//treelint:plain
func kCallerBuffer(s src, hits []int) []int {
	for {
		v, ok := s.Next()
		if !ok {
			return hits
		}
		hits = append(hits, v)
	}
}

// kLocalAppend grows a kernel-local slice instead.
//
//treelint:plain
func kLocalAppend(s src) int {
	var out []int
	for {
		v, ok := s.Next()
		if !ok {
			return len(out)
		}
		out = append(out, v) // want "append growth into a non-parameter slice"
	}
}

// kValueLiteral builds plain value composites: no heap traffic, clean.
//
//treelint:plain
func kValueLiteral(s src) item {
	v, _ := s.Next()
	return item{v: v}
}

// kHeapForms hits the remaining banned shapes.
//
//treelint:plain
func kHeapForms(s src, m map[int]int) *item {
	v, _ := s.Next()
	ws := []int{v}           // want "slice literal"
	mm := map[int]int{}      // want "map literal"
	m[v] = len(ws) + len(mm) // want "map write"
	p := new(item)           // want "new"
	return &item{v: p.v}     // want "heap composite literal"
}

// kConvert converts between string and []byte and boxes into a non-empty
// interface.
//
//treelint:plain
func kConvert(b []byte, it item) int {
	s := string(b)                       // want "string/\[\]byte conversion"
	var x stringer = stringer(boxed(it)) // want "interface boxing"
	return len(s) + len(x.String())
}

var interned = map[string]int{}

// kMapKey looks a byte slice up as a map key, which converts nothing, and
// stores under it, which converts it and writes the map.
//
//treelint:plain
func kMapKey(b []byte) int {
	n := interned[string(b)]
	interned[string(b)] = n // want "map write" "string/\[\]byte conversion"
	interned[string(b)]++   // want "string/\[\]byte conversion"
	return n
}

type boxed item

func (b boxed) String() string { return "" }

// kClosure creates a closure per call and launders a make through it.
//
//treelint:plain
func kClosure(s src) int {
	n := 0
	grow := func() { // want "closure allocation"
		n += len(make([]int, 2)) // want "make on the run path via grow"
	}
	grow()
	return n
}

// kViaHelper reaches an allocation through a package-local helper.
//
//treelint:plain
func kViaHelper(s src) int {
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			return n
		}
		n += helperAlloc()
	}
}

func helperAlloc() int {
	return len(make([]byte, 16)) // want "make in the per-event loop via helperAlloc"
}

// kDeadBranch allocates only behind a constant-false guard: the path is
// pruned, so the kernel is clean.
//
//treelint:plain
func kDeadBranch(s src) int {
	n := 0
	if false {
		n += len(make([]int, 64))
	}
	for {
		if _, ok := s.Next(); !ok {
			return n
		}
		n++
	}
}

// kAnnotated documents a deliberate run-level allocation.
//
//treelint:plain
func kAnnotated(s src, n int) int {
	//treelint:partial per-segment scratch, sized by the run prologue
	buf := make([]int, n)
	for {
		if _, ok := s.Next(); !ok {
			return len(buf)
		}
	}
}

// kBoundary calls a helper that is itself declared partial: the helper is
// a documented summary boundary the traversal does not enter.
//
//treelint:plain
func kBoundary(s src) int {
	v, _ := s.Next()
	return discoverState(v)
}

// discoverState stands in for a memoized state-discovery path.
//
//treelint:partial state discovery; memoized away in steady state
func discoverState(v int) int {
	return len(make([]int, v))
}

// unmarked is not a plain kernel: allocations are its own business.
func unmarked() []int {
	return make([]int, 32)
}
