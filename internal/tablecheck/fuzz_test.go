package tablecheck

import (
	"sync"
	"testing"

	"stackless/internal/alphabet"
	"stackless/internal/classify"
	"stackless/internal/core"
	"stackless/internal/encoding"
	"stackless/internal/paperfigs"
	"stackless/internal/rex"
	"stackless/internal/stackeval"
)

// The fuzz corpus encodes one event per byte: bit 0 is the kind, bits 1–2
// select the label among a, b, c and one out-of-alphabet string. The
// decoded streams are arbitrary — unbalanced, ill-labelled — exactly the
// inputs the batched kernels must poison identically to the string path.

func fuzzDecode(data []byte) []encoding.Event {
	if len(data) > 256 {
		data = data[:256]
	}
	labels := [4]string{"a", "b", "c", "zz"}
	evs := make([]encoding.Event, len(data))
	for i, b := range data {
		e := encoding.Event{Kind: encoding.Kind(b & 1), Label: labels[(b>>1)%4]}
		if e.Kind == encoding.Close && b&8 != 0 {
			e.Label = "" // term-style unlabelled close
		}
		evs[i] = e
	}
	return evs
}

func fuzzEncode(evs []encoding.Event) []byte {
	ids := map[string]byte{"a": 0, "b": 1, "c": 2}
	out := make([]byte, len(evs))
	for i, e := range evs {
		b := byte(e.Kind) & 1
		if e.Kind == encoding.Close && e.Label == "" {
			out[i] = b | 8
			continue
		}
		id, ok := ids[e.Label]
		if !ok {
			id = 3
		}
		out[i] = b | id<<1
	}
	return out
}

var fuzzMachines struct {
	once sync.Once
	ms   []machineUnderTest
	err  error
}

// fuzzCorpusMachines builds a fixed cross-family set once per process.
func fuzzCorpusMachines() ([]machineUnderTest, error) {
	f := &fuzzMachines
	f.once.Do(func() {
		an3a := classify.Analyze(paperfigs.Fig3a())
		an3b := classify.Analyze(paperfigs.Fig3b())
		an3c := classify.Analyze(paperfigs.Fig3c())
		// The registerless EL and AL machines run a synopsis table through
		// the EL/AL wrappers; the table is what the search drives.
		build := []func() (any, error){
			func() (any, error) { return core.RegisterlessQL(an3a) },
			func() (any, error) { return core.BlindRegisterlessQL(an3a) },
			func() (any, error) { return core.StacklessQL(an3c) },
			func() (any, error) { return core.BlindStacklessQL(an3c) },
			func() (any, error) { return core.SynopsisTable(an3a, false) },
			func() (any, error) { return core.SynopsisALTable(an3b, false) },
			func() (any, error) { return core.Example27Minimal(), nil },
			func() (any, error) {
				return stackeval.QL(rex.MustCompile("(a|b)*ab", alphabet.Letters("abc"))), nil
			},
		}
		for _, b := range build {
			m, err := b()
			if err != nil {
				f.err = err
				return
			}
			mu, _, err := underTest(m)
			if err != nil {
				f.err = err
				return
			}
			f.ms = append(f.ms, mu)
		}
	})
	return f.ms, f.err
}

// FuzzTablecheckRoundtrip is the equivalence check of this package driven
// by fuzzed event streams instead of enumerated trees: on every prefix of
// every input, the string path and both batched kernels must agree on
// acceptance, selection and configuration. Seeds include real
// counterexamples mined from deliberately corrupted tables.
func FuzzTablecheckRoundtrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1})                   // a ā
	f.Add([]byte{0, 2, 3, 9, 1})          // nested with a term close
	f.Add([]byte{6, 7, 6, 6})             // unknown labels, unbalanced
	f.Add([]byte{0, 2, 2, 3, 3, 4, 5, 1}) // a ⟨b ⟨b b̄⟩ b̄⟩ ⟨c c̄⟩ ā
	// Mine a real divergence counterexample from a corrupted table and seed
	// its event stream: regressions in the kernels tend to cluster around
	// exactly these shapes.
	if d, err := core.RegisterlessQL(classify.Analyze(paperfigs.Fig3a())); err == nil {
		tab, _, stride, dead := d.CompiledTable()
		for i, e := range tab {
			if e != dead && (i%int(stride))%2 == 0 {
				tab[i] = (e + 1) % dead
				break
			}
		}
		if diag, _, err := Equivalence("seed", d, Limits{Depth: 3, Width: 2, Alpha: 3, MaxNodes: 20000}); err == nil && diag != nil {
			f.Add(fuzzEncode(diag.Events))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		evs := fuzzDecode(data)
		ms, err := fuzzCorpusMachines()
		if err != nil {
			t.Fatal(err)
		}
		ce := make([]encoding.CodedEvent, 1)
		for mi, mu := range ms {
			mu.Reset()
			strCfg := mu.SaveConfig()
			codCfg := strCfg
			coder := alphabet.NewCoder(mu.CodeAlphabet())
			for i, e := range evs {
				mu.RestoreConfig(strCfg)
				mu.Step(e)
				strAcc := mu.Accepting()
				strCfg = mu.SaveConfig()

				ce[0] = encoding.CodedEvent{Sym: coder.Code(e.Label), Kind: e.Kind}
				prev := codCfg
				mu.RestoreConfig(prev)
				mu.StepBatch(ce)
				codAcc := mu.Accepting()
				codCfg = mu.SaveConfig()

				mu.RestoreConfig(prev)
				hits := mu.SelectBatch(ce, nil)
				selCfg := mu.SaveConfig()

				if strAcc != codAcc {
					t.Fatalf("machine %d event %d (%s): Accepting string=%v coded=%v", mi, i, e, strAcc, codAcc)
				}
				if e.Kind == encoding.Open {
					if hit := len(hits) > 0; hit != codAcc {
						t.Fatalf("machine %d event %d (%s): SelectBatch hit=%v Accepting=%v", mi, i, e, hit, codAcc)
					}
				}
				if codCfg.Key() != selCfg.Key() {
					t.Fatalf("machine %d event %d (%s): StepBatch %q vs SelectBatch %q", mi, i, e, codCfg.Key(), selCfg.Key())
				}
			}
		}
	})
}
