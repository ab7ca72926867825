package alphabet

import (
	"fmt"
	"testing"
)

func TestCoderKnownAndUnknown(t *testing.T) {
	a := New("a", "b", "c")
	c := NewCoder(a)
	if c.Alphabet() != a {
		t.Fatal("Alphabet() must return the wrapped alphabet")
	}
	if got, want := c.Unknown(), Sym(3); got != want {
		t.Fatalf("Unknown() = %d, want %d (alphabet size)", got, want)
	}
	for i, s := range []string{"a", "b", "c"} {
		if got := c.Code(s); got != Sym(i) {
			t.Fatalf("Code(%q) = %d, want %d", s, got, i)
		}
		// Second call hits the cache and must agree.
		if got := c.Code(s); got != Sym(i) {
			t.Fatalf("cached Code(%q) = %d, want %d", s, got, i)
		}
	}
	for _, s := range []string{"x", "", "aa"} {
		if got := c.Code(s); got != c.Unknown() {
			t.Fatalf("Code(%q) = %d, want unknown sentinel %d", s, got, c.Unknown())
		}
		if got := c.Code(s); got != c.Unknown() {
			t.Fatalf("cached Code(%q) = %d, want unknown sentinel %d", s, got, c.Unknown())
		}
	}
}

// TestCoderOverflow codes many distinct labels, twice over: resolutions
// must stay correct, including unknowns.
func TestCoderOverflow(t *testing.T) {
	var syms []string
	for i := 0; i < 48; i++ {
		syms = append(syms, fmt.Sprintf("s%02d", i))
	}
	a := New(syms...)
	c := NewCoder(a)
	for round := 0; round < 2; round++ {
		for i, s := range syms {
			if got := c.Code(s); got != Sym(i) {
				t.Fatalf("round %d: Code(%q) = %d, want %d", round, s, got, i)
			}
			if got := c.Code("u" + s); got != c.Unknown() {
				t.Fatalf("round %d: Code(%q) = %d, want unknown", round, "u"+s, got)
			}
		}
	}
}

// TestCoderEmptyAlphabet: every label is unknown, sentinel is 0.
func TestCoderEmptyAlphabet(t *testing.T) {
	c := NewCoder(New())
	if c.Unknown() != 0 {
		t.Fatalf("Unknown() = %d, want 0", c.Unknown())
	}
	if c.Code("a") != 0 {
		t.Fatal("empty alphabet must code everything to the sentinel")
	}
}
