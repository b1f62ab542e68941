package dlsim

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gossipmia/internal/spec"
)

// legacyCompile is the JSON round trip compile used to be: encode the
// public spec, parse the bytes as a spec file. It is the oracle the
// direct conversion must match.
func legacyCompile(s *Spec) (*spec.Spec, error) {
	if s == nil {
		return nil, fmt.Errorf("dlsim: nil spec")
	}
	raw, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("dlsim: encode spec: %w", err)
	}
	return spec.Parse(raw)
}

// checkCompile asserts that compile and the oracle agree on s: both
// fail or neither does, and then the compiled specs are deeply equal
// and give the same spec hash and the same arm hashes (the store keys
// and job dedup keys derive from these).
func checkCompile(t *testing.T, s *Spec) {
	t.Helper()
	got, gotErr := s.compile()
	want, wantErr := legacyCompile(s)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("compile error %v, oracle error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compiled spec differs from the oracle:\n got %#v\nwant %#v", got, want)
	}
	gotHash, err := got.Hash()
	if err != nil {
		t.Fatal(err)
	}
	wantHash, err := want.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if gotHash != wantHash {
		t.Fatalf("spec hash %s, oracle %s", gotHash, wantHash)
	}
	gotArms, err := got.ExpandArms()
	if err != nil {
		t.Fatal(err)
	}
	wantArms, err := want.ExpandArms()
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotArms {
		g, err := gotArms[i].Hash()
		if err != nil {
			t.Fatal(err)
		}
		w, err := wantArms[i].Hash()
		if err != nil {
			t.Fatal(err)
		}
		if g != w {
			t.Fatalf("arm %d hash %s, oracle %s", i, g, w)
		}
	}
}

// Pokes apply to a decoded spec what no JSON body can say: non-finite
// floats, Go ints in sweep values, invalid UTF-8, a nil spec.
const (
	pokeNone = iota
	pokeBeta
	pokeSweepFloat
	pokeSweepInt
	pokeDP
	pokeBadUTF8
	pokeNil
	pokeCount
)

// poke applies one Go-only edit to s (see the poke constants) and
// returns the edited spec.
func poke(s *Spec, kind uint8, x float64) *Spec {
	if s == nil {
		return nil
	}
	var arm *Arm
	switch {
	case len(s.Arms) > 0:
		arm = &s.Arms[0]
	case s.Sweep != nil:
		arm = &s.Sweep.Base
	}
	var axis *Axis
	if s.Sweep != nil && len(s.Sweep.Axes) > 0 {
		axis = &s.Sweep.Axes[len(s.Sweep.Axes)-1]
	}
	switch kind % pokeCount {
	case pokeBeta:
		if arm != nil {
			arm.Beta = x
		}
	case pokeSweepFloat:
		if axis != nil {
			axis.Values = append(axis.Values, x)
		}
	case pokeSweepInt:
		if axis != nil {
			n := 0
			if math.Abs(x) < 1<<62 {
				n = int(x)
			}
			axis.Values = append(axis.Values, n)
		}
	case pokeDP:
		if arm != nil {
			arm.DP = &DP{Epsilon: x, Delta: 1e-5, Clip: 1}
		}
	case pokeBadUTF8:
		if arm != nil {
			arm.Label += "\xff"
		}
	case pokeNil:
		return nil
	}
	return s
}

// FuzzSpecCompile checks the direct spec conversion against the JSON
// round trip it replaced, for any body that decodes into a Spec and
// any poke of it.
func FuzzSpecCompile(f *testing.F) {
	paths, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example specs: %v", err)
	}
	var bodies [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		bodies = append(bodies, raw)
	}
	r, err := NewRunner(WithScale("tiny"))
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range Catalog() {
		if !e.Runnable {
			continue
		}
		sp, err := r.FigureSpec(e.Name)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		bodies = append(bodies, raw)
	}
	for _, b := range bodies {
		f.Add(b, uint8(pokeNone), 0.0)
	}
	// Non-finite floats, and ints and negative zero in sweep values.
	sweep := []byte(`{"name":"n","sweep":{"base":{"label":"b","corpus":"cifar10","protocol":"samo","viewSize":2},` +
		`"axes":[{"field":"beta","values":[0.5,1]}]}}`)
	f.Add(sweep, uint8(pokeBeta), math.NaN())
	f.Add(sweep, uint8(pokeBeta), math.Inf(1))
	f.Add(sweep, uint8(pokeDP), math.Inf(-1))
	f.Add(sweep, uint8(pokeSweepFloat), math.NaN())
	f.Add(sweep, uint8(pokeSweepFloat), math.Copysign(0, -1))
	f.Add(sweep, uint8(pokeSweepInt), 4.0)
	f.Add(sweep, uint8(pokeSweepInt), 1e17+1)
	f.Add(sweep, uint8(pokeNone), 0.0)
	f.Add(bodies[0], uint8(pokeBadUTF8), 0.0)
	// A nil spec, as a body and as a poke.
	f.Add([]byte("null"), uint8(pokeNone), 0.0)
	f.Add(bodies[0], uint8(pokeNil), 0.0)
	// Empty vs nil members: the latency axis replaces the base arm's
	// net, so the base keeps its invalid partition past validation.
	// The empty arm list must vanish as its JSON encoding does.
	for _, members := range []string{`[]`, `null`, `[1,2]`} {
		f.Add([]byte(`{"name":"m","arms":[],"sweep":{"base":{"label":"b","corpus":"cifar10","protocol":"samo","viewSize":2,`+
			`"net":{"transport":"lossy","dropProb":0.1,"partitions":[{"fromTick":0,"toTick":5,"members":`+members+`}]}},`+
			`"axes":[{"field":"latency","values":[5,10]}]}}`), uint8(pokeNone), 0.0)
	}
	// Empty omitempty fields, and sweep values of every JSON type.
	f.Add([]byte(`{"name":"e","caption":"","arms":[{"label":"a","corpus":"cifar10","protocol":"base","viewSize":2,`+
		`"churn":[],"net":{"transport":"instant","partitions":[]},"train":{"lr":0.1,"localEpochs":1,"hidden":[]}}]}`), uint8(pokeNone), 0.0)
	f.Add([]byte(`{"name":"v","sweep":{"base":{"label":"b","corpus":"cifar10","protocol":"samo","viewSize":2},`+
		`"axes":[{"field":"canaries","values":[true,false,null,"x",1,[1],{"a":1}]}]}}`), uint8(pokeNone), 0.0)

	f.Fuzz(func(t *testing.T, body []byte, kind uint8, x float64) {
		var s *Spec
		if json.Unmarshal(body, &s) != nil {
			return
		}
		checkCompile(t, poke(s, kind, x))
	})
}

// TestSpecCompileCopies: the compiled spec shares no slice with the
// public one, as when it was decoded from fresh JSON.
func TestSpecCompileCopies(t *testing.T) {
	s := &Spec{Name: "c", Sweep: &Sweep{
		Base: Arm{Label: "b", Corpus: "cifar10", Protocol: "samo", ViewSize: 2,
			Net:   &Net{Transport: "lossy", DropProb: 0.1, Partitions: []Partition{{FromTick: 0, ToTick: 5, Members: []int{1}}}},
			Train: &Train{LR: 0.1, LocalEpochs: 1, Hidden: []int{8}}},
		Axes: []Axis{{Field: "beta", Values: []any{0.5}}},
	}}
	sp, err := s.compile()
	if err != nil {
		t.Fatal(err)
	}
	base := &s.Sweep.Base
	base.Net.Partitions[0].Members[0], base.Train.Hidden[0], s.Sweep.Axes[0].Values[0] = 9, 9, 9.0
	got := sp.Sweep
	if got.Base.Net.Partitions[0].Members[0] != 1 || got.Base.Train.Hidden[0] != 8 || got.Axes[0].Values[0] != 0.5 {
		t.Fatalf("compiled spec aliases the public one: %+v", got)
	}
}

// benchArms is a spec of 200 explicit arms.
func benchArms() *Spec {
	corpora := []string{"cifar10", "cifar100", "fashionmnist", "purchase100"}
	s := &Spec{Name: "bench arms", Caption: "200 explicit arms"}
	for i := range 200 {
		a := Arm{
			Label:      fmt.Sprintf("arm-%03d", i),
			Corpus:     corpora[i%len(corpora)],
			Protocol:   []string{"base", "samo"}[i%2],
			ViewSize:   2 + i%4,
			Dynamics:   []string{"static", "peerswap", "cyclon"}[i%3],
			Beta:       0.1 * float64(i%5),
			SeedOffset: int64(i),
		}
		if i%4 == 0 {
			a.Net = &Net{Transport: "latency", LatencyMean: 20, LatencyJitter: 6}
		}
		if i%5 == 0 {
			a.DP = &DP{Epsilon: 8, Delta: 1e-5, Clip: 1}
		}
		s.Arms = append(s.Arms, a)
	}
	return s
}

// benchSweep is a 3-axis sweep expanding to 200 arms.
func benchSweep() *Spec {
	betas := make([]any, 25)
	for i := range betas {
		betas[i] = 0.05 * float64(i+1)
	}
	return &Spec{
		Name: "bench sweep",
		Sweep: &Sweep{
			Base: Arm{Label: "base", Corpus: "cifar10", Protocol: "samo", ViewSize: 3},
			Axes: []Axis{
				{Field: "corpus", Values: []any{"cifar10", "cifar100", "fashionmnist", "purchase100"}},
				{Field: "protocol", Values: []any{"base", "samo"}},
				{Field: "beta", Values: betas},
			},
		},
	}
}

// BenchmarkSpecCompile measures the public → engine spec conversion
// (validation included) against the JSON round trip it replaced.
func BenchmarkSpecCompile(b *testing.B) {
	for _, c := range []struct {
		name string
		spec *Spec
	}{{"arms=200", benchArms()}, {"sweep=3axes", benchSweep()}} {
		for _, m := range []struct {
			name    string
			compile func(*Spec) (*spec.Spec, error)
		}{{"direct", (*Spec).compile}, {"roundtrip", legacyCompile}} {
			b.Run(c.name+"/"+m.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := m.compile(c.spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
