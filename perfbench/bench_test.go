package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"gossipmia/pkg/dlsim"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.1, 1.4}, {0.99, 4.96},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if xs[0] != 4 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	var d dist
	for i := 1; i <= 100; i++ {
		d.addDur(time.Duration(i)*time.Millisecond, time.Millisecond)
	}
	if got, want := d.summary("ms"), "p50 50.5 ms, p90 90.1 ms (n=100)"; got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "Submit", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "Await", Start: ms(30), End: ms(60)}, // overlaps Submit
		{ID: 4, Parent: 2, Name: "inner", Start: ms(20), End: ms(25)},
		{ID: 5, Parent: 1, Name: "late", Start: ms(90), End: ms(120)}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(100 - 50 - 10), 2: ms(25), 3: ms(30), 4: ms(5), 5: ms(30)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	if got := selfByName(spans)["Submit"]; got != ms(25) {
		t.Errorf("selfByName[Submit] = %v, want 25ms", got)
	}
}

func TestTreeError(t *testing.T) {
	seq := []span{
		{ID: 1, Name: "job", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "Submit", Start: ms(0), End: ms(10)},
		{ID: 3, Parent: 1, Name: "Events", Start: ms(10), End: ms(90)},
		{ID: 4, Parent: 3, Name: "x", Start: ms(20), End: ms(30)},
		{ID: 5, Name: "job", Start: ms(200), End: ms(250)},
		{ID: 6, Name: "lease", Start: ms(0), End: ms(50)},
	}
	worst, roots := treeError(seq, "job")
	if worst > 1e-12 || roots != 2 {
		t.Errorf("sequential children: error %v over %d roots, want 0 over 2", worst, roots)
	}
	overlap := append(seq[:4:4], span{ID: 5, Parent: 1, Name: "Await", Start: ms(50), End: ms(100)})
	worst, _ = treeError(overlap, "job")
	if math.Abs(worst-0.4) > 1e-12 { // 40ms of Events and Await overlap, counted twice
		t.Errorf("overlapping children: error %v, want 0.4", worst)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, "")
	tr.rename(id, "y", "g")
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Fatalf("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("lease", 0, "")
	child := tr.begin("ClaimWork", root, "")
	tr.end(child)
	tr.rename(root, "idle", "")
	tr.end(root)
	got := tr.snapshot()
	if len(got) != 2 || got[0].Name != "idle" || got[1].Parent != root || got[1].End < got[1].Start {
		t.Fatalf("spans = %+v", got)
	}
}

// The fleet's slots and the client record spans on one tracer at once.
func TestTracerConcurrentUse(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				root := tr.begin("lease", 0, "")
				id := tr.begin("ClaimWork", root, "")
				tr.rename(id, "ClaimWork", "lease-x")
				tr.end(id)
				tr.end(root)
			}
		}()
	}
	wg.Wait()
	spans := tr.snapshot()
	if len(spans) != 800 {
		t.Fatalf("%d spans, want 800", len(spans))
	}
	if worst, roots := treeError(spans, "lease"); roots != 400 || worst > 1e-9 {
		t.Errorf("self-time error %v over %d roots, want 0 over 400", worst, roots)
	}
}

func TestPackageAndLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, pkg, layer string }{
		{"gossipmia/internal/tensor.GemmNT", "gossipmia/internal/tensor", "tensor"},
		{"gossipmia/internal/nn.(*MLP).Forward", "gossipmia/internal/nn", "nn"},
		{"gossipmia/internal/par.ForEach[go.shape.int]", "gossipmia/internal/par", "par"},
		{"gossipmia/internal/server/middleware.Log.func1", "gossipmia/internal/server/middleware", "server"},
		{"gossipmia/internal/server.(*Server).handleSubmit", "gossipmia/internal/server", "server"},
		{"gossipmia/pkg/dlsim.ArmResult.Checksum", "gossipmia/pkg/dlsim", "dlsim"},
		{"runtime.mallocgc", "runtime", "runtime"},
		{"internal/runtime/atomic.(*Uint32).Load", "internal/runtime/atomic", "runtime"},
		{"net/http.(*conn).serve", "net/http", "http"},
		{"net.(*conn).Read", "net", "http"},
		{"encoding/json.(*decodeState).object", "encoding/json", "json"},
		{"crypto/sha256.block", "crypto/sha256", "crypto"},
		{"main.run", "main", "bench"},
		{"internal/bytealg.IndexByte", "internal/bytealg", "runtime"},
		{"slices.SortFunc[go.shape.[]uint8,go.shape.func(a/b.T)]", "slices", "slices"},
	} {
		if got := packageOf(c.fn); got != c.pkg {
			t.Errorf("packageOf(%q) = %q, want %q", c.fn, got, c.pkg)
		}
		if got := funcLayer(c.fn); got != c.layer {
			t.Errorf("funcLayer(%q) = %q, want %q", c.fn, got, c.layer)
		}
	}
	if got := funcLayer("cmpbody"); got != "runtime" {
		t.Errorf("funcLayer(cmpbody) = %q, want runtime", got)
	}
}

func TestCPUShareByLayer(t *testing.T) {
	shares := cpuShareByLayer(map[string]int64{
		"gossipmia/internal/tensor.GemmNT":        50,
		"gossipmia/internal/tensor.gemmTNRange":   25,
		"gossipmia/internal/nn.(*MLP).Forward":    15,
		"runtime.mallocgc":                        10,
		"gossipmia/internal/server.(*Server).pop": 0,
	})
	want := map[string]float64{"tensor": 0.75, "nn": 0.15, "runtime": 0.10, "server": 0}
	for k, w := range want {
		if math.Abs(shares[k]-w) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", k, shares[k], w)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("shares = %v", shares)
	}
}

// pb builds protocol-buffer messages for the decoder tests.
type pb struct{ b []byte }

func (p *pb) key(num, wire int) { p.b = binary.AppendUvarint(p.b, uint64(num<<3|wire)) }
func (p *pb) varint(num int, v uint64) *pb {
	p.key(num, 0)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}
func (p *pb) bytes(num int, b []byte) *pb {
	p.key(num, 2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}
func (p *pb) packed(num int, vs ...uint64) *pb {
	var raw []byte
	for _, v := range vs {
		raw = binary.AppendUvarint(raw, v)
	}
	return p.bytes(num, raw)
}

func TestCPUByFunctionDecodesProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"gossipmia/internal/tensor.GemmNT", "gossipmia/internal/nn.(*MLP).Step", "runtime.mallocgc"}
	prof := &pb{}
	prof.bytes(profSampleType, (&pb{}).varint(1, 1).varint(2, 2).b)
	prof.bytes(profSampleType, (&pb{}).varint(1, 3).varint(2, 4).b)
	// Location 1 is GemmNT inlined into MLP.Step: its leaf is GemmNT.
	prof.bytes(profLocation, (&pb{}).varint(locationID, 1).
		bytes(locationLine, (&pb{}).varint(lineFunctionID, 10).b).
		bytes(locationLine, (&pb{}).varint(lineFunctionID, 20).b).b)
	prof.bytes(profLocation, (&pb{}).varint(locationID, 2).
		bytes(locationLine, (&pb{}).varint(lineFunctionID, 20).b).b)
	prof.bytes(profLocation, (&pb{}).varint(locationID, 3).
		bytes(locationLine, (&pb{}).varint(lineFunctionID, 30).b).b)
	for id, name := range map[uint64]uint64{10: 5, 20: 6, 30: 7} {
		prof.bytes(profFunction, (&pb{}).varint(functionID, id).varint(functionName, name).b)
	}
	// Packed and unpacked repeated fields both occur in the wild.
	prof.bytes(profSample, (&pb{}).packed(sampleLocationID, 1, 2).packed(sampleValue, 3, 30_000_000).b)
	prof.bytes(profSample, (&pb{}).varint(sampleLocationID, 2).varint(sampleValue, 1).varint(sampleValue, 10_000_000).b)
	prof.bytes(profSample, (&pb{}).packed(sampleLocationID, 3, 2).packed(sampleValue, 2, 20_000_000).b)
	prof.bytes(profSample, (&pb{}).packed(sampleLocationID, 1).packed(sampleValue, 1, 10_000_000).b)
	for _, s := range strs {
		prof.bytes(profStringTable, []byte(s))
	}
	got, err := cpuByFunction(prof.b)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"gossipmia/internal/tensor.GemmNT":  40_000_000,
		"gossipmia/internal/nn.(*MLP).Step": 10_000_000,
		"runtime.mallocgc":                  20_000_000,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
	if _, err := cpuByFunction(prof.b[:len(prof.b)-3]); err == nil {
		t.Errorf("truncated profile decoded without error")
	}
}

//go:noinline
func spinForProfile(d time.Duration) float64 {
	x := 0.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestCPUByFunctionReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sink := spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	_ = sink
	byFunc, err := cpuByFunction(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares := cpuShareByLayer(byFunc)
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("the spinning test function has %.2f of the CPU, want most: %v", shares["bench"], shares)
	}
}

func TestValidMetric(t *testing.T) {
	for _, c := range []struct {
		name, unit string
		ok         bool
	}{
		{"setup_s", "s", true},
		{"tensor.gemm_nt_gflops", "GFLOP/s", true},
		{"9lives-x.y", "%", true},
		{"arms_per_s", "1/s", true},
		{"_leading", "s", false},
		{"has space", "s", false},
		{"slash/name", "s", false},
		{"a", "", false},
		{"a", "seventeen-chars-x", false},
		{"x" + string(bytes.Repeat([]byte("y"), 64)), "s", false},
	} {
		if err := validMetric(c.name, c.unit); (err == nil) != c.ok {
			t.Errorf("validMetric(%q, %q) = %v, want ok=%v", c.name, c.unit, err, c.ok)
		}
	}
}

func TestResultLineChecksMetricSet(t *testing.T) {
	r := &result{Metrics: map[string]metric{}}
	for _, d := range endToEndMetrics {
		r.set(d.name, 1)
	}
	if _, err := r.line(endToEndMetrics); err != nil {
		t.Fatal(err)
	}
	if _, err := r.line(perLayerMetrics); err == nil {
		t.Errorf("end-to-end result passed as per-layer")
	}
	r.set("bogus", 1)
	if _, err := r.line(endToEndMetrics); err == nil {
		t.Errorf("extra metric accepted")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the program reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %s unknown to the program", w.Name)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEndMetrics)
	check("per_layer", layer, perLayerMetrics)
}

// TestReferenceKeysByContent checks that arms differing only in label
// share a reference result, and that a result still has to carry its
// own arm's label and the reference's values bit for bit.
func TestReferenceKeysByContent(t *testing.T) {
	arm := dlsim.Arm{Label: "cifar10/base/p7", Corpus: "cifar10", Protocol: "base", ViewSize: 5, SeedOffset: 7}
	other := arm
	other.SeedOffset = 8
	ref := newReference("tiny", 1)
	res := dlsim.ArmResult{Label: arm.Label, MessagesSent: 10, Records: []dlsim.RoundRecord{{Round: 1, TestAcc: 0.5}}}
	if err := ref.keep([]dlsim.Arm{arm}, &dlsim.Result{Arms: []dlsim.ArmResult{res}}); err != nil {
		t.Fatal(err)
	}
	relabeled := arm
	relabeled.Label = "cifar10/base/p7/s3"
	good := res
	good.Label = relabeled.Label
	good.Records = []dlsim.RoundRecord{{Round: 1, TestAcc: 0.5}}
	wrongLabel := good
	wrongLabel.Label = arm.Label
	wrongValue := good
	wrongValue.Records = []dlsim.RoundRecord{{Round: 1, TestAcc: math.Nextafter(0.5, 1)}}
	for _, c := range []struct {
		name string
		want dlsim.Arm
		got  dlsim.ArmResult
		bad  int
	}{
		{"same content, own label", relabeled, good, 0},
		{"another arm's label", relabeled, wrongLabel, 1},
		{"one ulp off", relabeled, wrongValue, 1},
		{"no reference", other, good, 1},
	} {
		if bad := ref.mismatches([]dlsim.Arm{c.want}, []dlsim.ArmResult{c.got}); bad != c.bad {
			t.Errorf("%s: %d mismatches, want %d", c.name, bad, c.bad)
		}
	}
	if err := ref.keep([]dlsim.Arm{arm}, &dlsim.Result{Arms: []dlsim.ArmResult{{Label: "elsewhere"}}}); err == nil {
		t.Errorf("a result filed under another arm's label was accepted")
	}
}
