package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"gossipmia/pkg/dlsim"
)

// reference holds the serial engine's output (Workers = 1) for the
// arms a run checks, keyed by content (see contentKey), and, for a
// whole-spec run, the results.csv bytes it wrote. It is computed before
// the timed phase, outside set-up.
type reference struct {
	scale string
	seed  int64
	arms  map[string]dlsim.ArmResult
	csv   []byte
}

func newReference(scale string, seed int64) *reference {
	return &reference{scale: scale, seed: seed, arms: map[string]dlsim.ArmResult{}}
}

// contentKey identifies what an arm computes: everything but its label.
// The engine derives an arm's seed from the scale seed and the seed
// offset, never from the label, so arms that differ only in label give
// the same result but the label; the label still makes them distinct
// specs to the service's dedup and store.
func contentKey(a dlsim.Arm) string {
	a.Label = ""
	raw, err := json.Marshal(a)
	if err != nil {
		panic(fmt.Sprintf("perfbench: arm key: %v", err)) // an Arm always encodes
	}
	return string(raw)
}

func (r *reference) runner() (*dlsim.Runner, error) {
	return dlsim.NewRunner(dlsim.WithScale(r.scale), dlsim.WithSeed(r.seed), dlsim.WithWorkers(1))
}

// computeDir runs sp serially through RunDir into dir and keeps both
// its arm results and its results.csv.
func (r *reference) computeDir(ctx context.Context, sp *dlsim.Spec, dir string) error {
	run, err := r.runner()
	if err != nil {
		return err
	}
	res, _, err := run.RunDir(ctx, sp, dlsim.DirOptions{OutDir: dir, Events: "none"})
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if r.csv, err = os.ReadFile(filepath.Join(dir, "results.csv")); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	return r.keep(sp.Arms, res)
}

// compute runs the arms whose reference is missing on the serial
// engine. Arms are independent, so they are split over two serial
// runners, one per core; each arm's bytes do not depend on which
// runner or spec it ran in.
func (r *reference) compute(ctx context.Context, arms []dlsim.Arm) error {
	var todo []dlsim.Arm
	seen := map[string]bool{}
	for _, a := range arms {
		k := contentKey(a)
		if _, ok := r.arms[k]; !ok && !seen[k] {
			seen[k] = true
			todo = append(todo, a)
		}
	}
	const parts = 2
	chunks := make([][]dlsim.Arm, parts)
	for i, a := range todo {
		chunks[i%parts] = append(chunks[i%parts], a)
	}
	results := make([]*dlsim.Result, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p, chunk := range chunks {
		if len(chunk) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run, err := r.runner()
			if err == nil {
				results[p], err = run.Run(ctx, &dlsim.Spec{Name: "reference", Arms: chunk})
			}
			errs[p] = err
		}()
	}
	wg.Wait()
	for p, chunk := range chunks {
		if errs[p] != nil {
			return fmt.Errorf("reference: %w", errs[p])
		}
		if len(chunk) > 0 {
			if err := r.keep(chunk, results[p]); err != nil {
				return err
			}
		}
	}
	return nil
}

// keep files the results of a serial run of arms under their keys.
func (r *reference) keep(arms []dlsim.Arm, res *dlsim.Result) error {
	if len(res.Arms) != len(arms) {
		return fmt.Errorf("reference: %d results for %d arms", len(res.Arms), len(arms))
	}
	for i, a := range arms {
		if res.Arms[i].Label != a.Label {
			return fmt.Errorf("reference: result %d is arm %q, want %q", i, res.Arms[i].Label, a.Label)
		}
		r.arms[contentKey(a)] = res.Arms[i]
	}
	return nil
}

// mismatches counts the arms of got that differ from the reference,
// in spec order, or have none; got must already have one result per
// wanted arm. Each result must carry its own arm's label.
func (r *reference) mismatches(want []dlsim.Arm, got []dlsim.ArmResult) int {
	bad := 0
	for i, a := range want {
		ref, ok := r.arms[contentKey(a)]
		ref.Label = a.Label
		if !ok || !sameArm(ref, got[i]) {
			bad++
		}
	}
	return bad
}

// sameArm reports whether two arm results are identical field by field
// and bit for bit — exactly when their canonical JSON encodings, and so
// their checksums, are equal — without encoding either.
func sameArm(a, b dlsim.ArmResult) bool {
	if a.Label != b.Label || a.MessagesSent != b.MessagesSent || a.BytesSent != b.BytesSent ||
		!sameFloat(a.RealizedEpsilon, b.RealizedEpsilon) || !sameFloat(a.NoiseMultiplier, b.NoiseMultiplier) ||
		len(a.Records) != len(b.Records) {
		return false
	}
	for i, x := range a.Records {
		y := b.Records[i]
		if x.Round != y.Round || !sameFloat(x.TestAcc, y.TestAcc) || !sameFloat(x.MIAAcc, y.MIAAcc) ||
			!sameFloat(x.TPRAt1FPR, y.TPRAt1FPR) || !sameFloat(x.GenError, y.GenError) {
			return false
		}
	}
	return true
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// csvMatches compares an in-process run's results.csv with the serial
// reference's bytes.
func (r *reference) csvMatches(runDir string) (bool, error) {
	got, err := os.ReadFile(filepath.Join(runDir, "results.csv"))
	if err != nil {
		return false, err
	}
	return bytes.Equal(got, r.csv), nil
}
