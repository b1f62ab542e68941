package main

// Direct calls into layers the workloads only reach from inside the
// engine: the GEMM kernels at the Figure 2 training shapes, and the
// result store each workload wrote, opened read-only after its timed
// phase.

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	"gossipmia/internal/store"
	"gossipmia/internal/tensor"
)

// gemmShape is one kernel call: C is m×n, the shared dimension is k.
type gemmShape struct{ m, n, k int }

// figure2Shapes returns, per kernel, the shapes one training step of
// each Figure 2 corpus calls it at: batch 16, input dim d, hidden h,
// classes c. Forward passes are C = A·Bᵀ (GemmNT), weight gradients
// C = Aᵀ·B (GemmTN), and back-propagated deltas C = A·B (GemmNN).
func figure2Shapes() map[string][]gemmShape {
	const batch = 16
	nets := []struct{ d, h, c int }{
		{64, 48, 10},   // cifar10
		{128, 96, 100}, // cifar100
		{49, 48, 10},   // fashionmnist
		{600, 64, 100}, // purchase100
	}
	out := map[string][]gemmShape{}
	for _, n := range nets {
		out["nt"] = append(out["nt"], gemmShape{batch, n.h, n.d}, gemmShape{batch, n.c, n.h})
		out["tn"] = append(out["tn"], gemmShape{n.h, n.d, batch}, gemmShape{n.c, n.h, batch})
		out["nn"] = append(out["nn"], gemmShape{batch, n.h, n.c})
	}
	return out
}

// gemmGFLOPS times kernel over its shapes for about budget and returns
// GFLOP/s, counting 2·m·n·k floating-point operations per call.
func gemmGFLOPS(kernel string, shapes []gemmShape, budget time.Duration, tr *tracer, root int) float64 {
	fn := map[string]func(c, a, b []float64, m, n, k int){
		"nt": tensor.GemmNT, "tn": tensor.GemmTN, "nn": tensor.GemmNN,
	}[kernel]
	type operands struct{ c, a, b []float64 }
	ops := make([]operands, len(shapes))
	for i, s := range shapes {
		ops[i] = operands{make([]float64, s.m*s.n), fill(s.m * s.k), fill(s.k * s.n)}
	}
	var flops float64
	id := tr.begin("tensor.Gemm"+strings.ToUpper(kernel), root, "")
	start := time.Now()
	for time.Since(start) < budget {
		for i, s := range shapes {
			fn(ops[i].c, ops[i].a, ops[i].b, s.m, s.n, s.k)
			flops += 2 * float64(s.m*s.n*s.k)
		}
	}
	took := time.Since(start)
	tr.end(id)
	return flops / took.Seconds() / 1e9
}

func fill(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%17)/17 - 0.5
	}
	return x
}

// storeProbe is what the read-only probe of a result store measured.
type storeProbe struct {
	openMs       float64
	scanUsPerRec float64
	getUs        dist
	segments     int
	bytesPerRec  float64
	bloomFP      float64
}

// probeStore opens dir read-only, scans every record, gets a sample of
// the keys it found and as many absent keys, and reads the store's
// shape and bloom-filter counters.
func probeStore(dir string, tr *tracer) (*storeProbe, error) {
	root := tr.begin("store.probe", 0, dir)
	defer tr.end(root)
	p := &storeProbe{}
	id := tr.begin("store.Open", root, "")
	t0 := time.Now()
	st, err := store.Open(dir, store.Options{ReadOnly: true})
	p.openMs = float64(time.Since(t0)) / float64(time.Millisecond)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("store probe: %w", err)
	}
	defer st.Close()
	var keys []string
	id = tr.begin("store.Scan", root, "")
	t0 = time.Now()
	err = st.Scan("", "", func(key string, _ []byte) error {
		keys = append(keys, key)
		return nil
	})
	scan := time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("store probe: %w", err)
	}
	p.scanUsPerRec = ratio(float64(scan)/float64(time.Microsecond), float64(len(keys)))
	for i := 0; i < len(keys) && i < 200; i++ {
		key := keys[i*len(keys)/min(len(keys), 200)]
		id = tr.begin("store.Get", root, "")
		t0 = time.Now()
		_, ok, err := st.Get(key)
		p.getUs.addDur(time.Since(t0), time.Microsecond)
		tr.end(id)
		if err != nil || !ok {
			return nil, fmt.Errorf("store probe: get %q: found=%v err=%v", key, ok, err)
		}
	}
	before := st.Stats()
	id = tr.begin("store.GetAbsent", root, "")
	for i := 0; i < 2000; i++ {
		if _, _, err := st.Get(fmt.Sprintf("absent/%08d", i)); err != nil {
			return nil, fmt.Errorf("store probe: %w", err)
		}
	}
	tr.end(id)
	after := st.Stats()
	p.segments = after.Segments
	p.bloomFP = ratio(float64(after.BloomFalsePositives-before.BloomFalsePositives),
		float64(after.BloomChecks-before.BloomChecks))
	var size int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			size += info.Size()
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("store probe: %w", err)
	}
	p.bytesPerRec = ratio(float64(size), float64(len(keys)))
	return p, nil
}
