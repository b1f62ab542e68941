package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"gossipmia/internal/server"
	"gossipmia/pkg/dlsim"
)

// Load is sized for a 2-core host: one closed-loop client, engine
// Workers = 2, and a fleet of two slots.
const (
	engineWorkers = 2
	fleetSlots    = 2
	// fleetArms is the arm count of one fleet-tiny sweep.
	fleetArms = 200
	// poolArms and windowArms size resubmit-cached: jobs are windows
	// of windowArms consecutive arms of a pool of poolArms.
	poolArms   = 240
	windowArms = 200
)

// workload is one named input set: how to build its stack and which
// operations its timed phase runs.
type workload struct {
	name string
	// scale is the experiment scale of every arm the workload runs.
	scale string
	// cycle is the op count of one full round of the workload's input
	// mix; a timed phase always ends on a whole cycle so every run
	// measures the same mix.
	cycle int
	// setups is how many times a run builds the stack (the last one is
	// measured on); setup_s is the median.
	setups int
	// freshHeap starts each operation from a collected heap with its
	// free pages returned to the OS, so an operation's peak resident
	// set is its own and not what the one before it left behind. It is
	// set where operations take a second or more, so the untimed
	// collection is cheap beside them.
	freshHeap bool
	setup     func(ctx context.Context, in *inputs, dir string) (stack, error)
}

var workloads = []workload{
	{name: "fig2-inproc", scale: "quick", cycle: 1, setups: 5, freshHeap: true, setup: setupFig2},
	{name: "serve-arm-jobs", scale: "quick", cycle: 4, setups: 5, freshHeap: true, setup: setupServeArms},
	{name: "fleet-tiny", scale: "tiny", cycle: 1, setups: 5, freshHeap: true, setup: setupFleet},
	// Each set-up computes the whole pool, so fewer repeats.
	{name: "resubmit-cached", scale: "tiny", cycle: 1, setups: 3, setup: setupResubmit},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stack is a workload's system under test, ready to run operations.
type stack interface {
	// op runs the i-th operation of the timed phase under span root.
	op(ctx context.Context, i int, tr *tracer, root int) (*opOut, error)
	// service returns the job service, or nil for in-process runs.
	service() *service
	// storeDir is the result store the last operation wrote, if any.
	storeDir() string
	close()
}

// opOut is what one operation produced, for checking and for the
// per-layer metrics.
type opOut struct {
	want    []dlsim.Arm
	arms    []dlsim.ArmResult
	job     string
	deduped bool
	status  string
	errMsg  string
	// runDir holds the run's results.csv and manifest.json, if written.
	runDir string
	// events counts streamed round records; firstEvent is when the
	// first arrived, from the start of the operation.
	events     int
	firstEvent time.Duration
	// eventsDir holds the per-arm JSONL event files of an in-process run.
	eventsDir string
	report    *dlsim.RunReport
}

// inputs are everything a run generates from its --seed: the scale
// seed every arm runs under and the arm lists of each operation. The
// same seed always yields the same inputs.
type inputs struct {
	// scaleSeed is the experiment's base seed.
	scaleSeed int64
	rng       *rand.Rand
	// offsetBase separates this seed's arm seed offsets.
	offsetBase int64
}

func newInputs(seed int64) *inputs {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	return &inputs{
		scaleSeed:  1 + rng.Int64N(1<<30),
		rng:        rng,
		offsetBase: 1000 * (1 + rng.Int64N(1<<20)),
	}
}

var corpora = []string{"cifar10", "cifar100", "fashionmnist", "purchase100"}

// figure2Arms returns the 8 arms of the paper's Figure 2 spec.
func figure2Arms() (*dlsim.Spec, error) {
	r, err := dlsim.NewRunner(dlsim.WithScale("quick"))
	if err != nil {
		return nil, err
	}
	return r.FigureSpec("2")
}

// tinyArms returns n arms balanced over corpus × protocol, in an order
// shuffled by rng, with distinct seed offsets from base upward.
func tinyArms(rng *rand.Rand, n int, base int64, tag string) []dlsim.Arm {
	arms := make([]dlsim.Arm, n)
	for i := range arms {
		corpus := corpora[i%len(corpora)]
		proto := []string{"base", "samo"}[(i/len(corpora))%2]
		off := base + int64(i)
		arms[i] = dlsim.Arm{
			Label:      fmt.Sprintf("%s/%s/%s%d", corpus, proto, tag, off),
			Corpus:     corpus,
			Protocol:   proto,
			ViewSize:   5,
			SeedOffset: off,
		}
	}
	rng.Shuffle(len(arms), func(i, j int) { arms[i], arms[j] = arms[j], arms[i] })
	return arms
}

// ---- fig2-inproc: the Figure 2 sweep through Runner.RunDir ----

type fig2Stack struct {
	runner *dlsim.Runner
	spec   *dlsim.Spec
	dir    string
	last   string
}

func setupFig2(ctx context.Context, in *inputs, dir string) (stack, error) {
	sp, err := figure2Arms()
	if err != nil {
		return nil, err
	}
	runner, err := dlsim.NewRunner(dlsim.WithScale("quick"), dlsim.WithSeed(in.scaleSeed), dlsim.WithWorkers(engineWorkers))
	if err != nil {
		return nil, err
	}
	// Warm-up: the same sweep at the tiny scale, through the same
	// directory, store and event-stream paths.
	warm, err := dlsim.NewRunner(dlsim.WithScale("tiny"), dlsim.WithSeed(in.scaleSeed), dlsim.WithWorkers(engineWorkers))
	if err != nil {
		return nil, err
	}
	if _, _, err := warm.RunDir(ctx, sp, dlsim.DirOptions{
		OutDir: filepath.Join(dir, "warm", "out"), Events: "jsonl", StoreDir: filepath.Join(dir, "warm", "store"),
	}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &fig2Stack{runner: runner, spec: sp, dir: dir}, nil
}

func (s *fig2Stack) op(ctx context.Context, i int, tr *tracer, root int) (*opOut, error) {
	opDir := filepath.Join(s.dir, fmt.Sprintf("op-%d", i))
	job := fmt.Sprintf("sweep-%d", i)
	tr.rename(root, "job", job)
	id := tr.begin("RunDir", root, "")
	res, rep, err := s.runner.RunDir(ctx, s.spec, dlsim.DirOptions{
		OutDir: filepath.Join(opDir, "out"), Events: "jsonl", StoreDir: filepath.Join(opDir, "store"),
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if s.last != "" {
		os.RemoveAll(s.last)
	}
	s.last = opDir
	return &opOut{
		want: s.spec.Arms, arms: res.Arms, job: job, status: dlsim.StatusDone,
		runDir: filepath.Join(opDir, "out"), eventsDir: filepath.Join(opDir, "out", "events"), report: rep,
	}, nil
}

func (s *fig2Stack) service() *service { return nil }

func (s *fig2Stack) storeDir() string {
	if s.last == "" {
		return ""
	}
	return filepath.Join(s.last, "store")
}

func (s *fig2Stack) close() {}

// ---- serve-arm-jobs: single-arm latency-transport jobs, no fleet ----

// serveCorpora are the corpora whose Figure 2 arms serve-arm-jobs runs:
// the two whose quick-scale arms take about a second. The other two
// take a tenth of that, and with both kinds in the mix the median job
// time would fall in the gap between them, where it jumps from run to
// run.
var serveCorpora = map[string]bool{"cifar100": true, "purchase100": true}

// serveWorkers is the engine worker count of a serve-arm-jobs job. With
// two, a lone arm runs the node-parallel tick engine, whose per-tick
// barrier waits for the slower of the two shared vCPUs: a 14% rise in
// CPU per arm from the neighbours' load raised the job time by 70%,
// past any bound. With one, the job measures the service's local
// execution, the latency transport and the event stream.
const serveWorkers = 1

type serveArmsStack struct {
	svc  *service
	arms []dlsim.Arm // the cycle's arms
	in   *inputs
}

func setupServeArms(ctx context.Context, in *inputs, dir string) (stack, error) {
	sp, err := figure2Arms()
	if err != nil {
		return nil, err
	}
	var arms []dlsim.Arm
	for _, a := range sp.Arms {
		if serveCorpora[a.Corpus] {
			arms = append(arms, a)
		}
	}
	in.rng.Shuffle(len(arms), func(i, j int) { arms[i], arms[j] = arms[j], arms[i] })
	for i := range arms {
		a := &arms[i]
		// The latency transport of examples/specs/protocol_latency_grid.json.
		a.Net = &dlsim.Net{Transport: "latency", LatencyMean: 20, LatencyJitter: 6}
		a.SeedOffset = in.offsetBase + int64(i)
		a.Label = fmt.Sprintf("%s/%s/lat20/o%d", a.Corpus, a.Protocol, a.SeedOffset)
	}
	svc, err := startService(ctx, server.Config{Jobs: 1, DefaultScale: "quick"})
	if err != nil {
		return nil, err
	}
	s := &serveArmsStack{svc: svc, arms: arms, in: in}
	// Warm-up: the cycle's arms at the tiny scale, through the same job
	// path.
	var warm []dlsim.Arm
	for _, a := range arms {
		a.Label += "/warm"
		warm = append(warm, a)
	}
	if err := svc.runDone(ctx, dlsim.JobRequest{
		Spec: &dlsim.Spec{Name: "warm-up", Arms: warm}, Scale: "tiny", Seed: in.scaleSeed, Workers: serveWorkers,
	}); err != nil {
		svc.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *serveArmsStack) op(ctx context.Context, i int, tr *tracer, root int) (*opOut, error) {
	// A label of its own makes each job a distinct spec, so the
	// service's dedup never answers it; the work is the cycle arm's.
	a := s.arms[i%len(s.arms)]
	a.Label = fmt.Sprintf("%s/job%d", a.Label, i)
	return s.svc.runJob(ctx, dlsim.JobRequest{
		Spec:  &dlsim.Spec{Name: fmt.Sprintf("arm-job-%d", i), Arms: []dlsim.Arm{a}},
		Scale: "quick", Seed: s.in.scaleSeed, Workers: serveWorkers,
	}, tr, root)
}

func (s *serveArmsStack) service() *service { return s.svc }
func (s *serveArmsStack) storeDir() string  { return "" }
func (s *serveArmsStack) close()            { s.svc.close() }

// ---- fleet-tiny: tiny-arm sweeps executed by a two-slot fleet ----

type fleetStack struct {
	svc *service
	in  *inputs
	// arms is the sweep every op runs, under labels of its own.
	arms []dlsim.Arm
}

func setupFleet(ctx context.Context, in *inputs, dir string) (stack, error) {
	svc, err := startService(ctx, server.Config{
		Jobs: 1, DefaultScale: "tiny",
		CheckpointDir: filepath.Join(dir, "ckpt"), StoreDir: filepath.Join(dir, "store"),
	})
	if err != nil {
		return nil, err
	}
	svc.fleet, err = startFleet(ctx, svc.client, "slot", fleetSlots)
	if err != nil {
		svc.close()
		return nil, err
	}
	s := &fleetStack{svc: svc, in: in, arms: tinyArms(in.rng, fleetArms, in.offsetBase+1000, "f")}
	// Warm-up: a short sweep of arms no timed op uses.
	warm := tinyArms(in.rng, 8, in.offsetBase+900, "w")
	if err := svc.runDone(ctx, dlsim.JobRequest{
		Spec: &dlsim.Spec{Name: "warm-up", Arms: warm}, Scale: "tiny", Seed: in.scaleSeed, Workers: engineWorkers,
	}); err != nil {
		svc.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *fleetStack) op(ctx context.Context, i int, tr *tracer, root int) (*opOut, error) {
	// Labels of the op's own make every arm a distinct store key, so
	// each one is executed by the fleet and written to the store.
	arms := make([]dlsim.Arm, len(s.arms))
	for j, a := range s.arms {
		a.Label = fmt.Sprintf("%s/s%d", a.Label, i)
		arms[j] = a
	}
	return s.svc.runJob(ctx, dlsim.JobRequest{
		Spec:  &dlsim.Spec{Name: fmt.Sprintf("fleet-sweep-%d", i), Arms: arms},
		Scale: "tiny", Seed: s.in.scaleSeed, Workers: engineWorkers,
	}, tr, root)
}

func (s *fleetStack) service() *service { return s.svc }
func (s *fleetStack) storeDir() string  { return s.svc.storeDir }
func (s *fleetStack) close()            { s.svc.close() }

// ---- resubmit-cached: windows of a pool the store already holds ----

type resubmitStack struct {
	svc  *service
	in   *inputs
	pool []dlsim.Arm
	// starts is the seeded order in which window start offsets are used.
	starts []int
}

func setupResubmit(ctx context.Context, in *inputs, dir string) (stack, error) {
	pool := tinyArms(in.rng, poolArms, in.offsetBase, "p")
	svc, err := startService(ctx, server.Config{
		Jobs: 1, DefaultScale: "tiny",
		CheckpointDir: filepath.Join(dir, "ckpt"), StoreDir: filepath.Join(dir, "store"),
	})
	if err != nil {
		return nil, err
	}
	// Compute the pool into the service's store.
	if err := svc.runDone(ctx, dlsim.JobRequest{
		Spec: &dlsim.Spec{Name: poolSpec, Arms: pool}, Scale: "tiny", Seed: in.scaleSeed, Workers: engineWorkers,
	}); err != nil {
		svc.close()
		return nil, fmt.Errorf("pool: %w", err)
	}
	return &resubmitStack{svc: svc, in: in, pool: pool, starts: in.rng.Perm(poolArms - windowArms + 1)}, nil
}

// poolSpec names the pool's spec and every window job's. The store's
// listing index is keyed by spec name and arm label, so window jobs
// find their index rows already written and only read the store; the
// name is not part of a job's dedup key, so each window is still a job
// of its own.
const poolSpec = "pool"

// window returns the arms of op i: a window of the pool, its start
// taken in seeded order and its arm order rotated once per pass over
// the starts, so every op is a distinct spec of windowArms cached arms.
func (s *resubmitStack) window(i int) []dlsim.Arm {
	start := s.starts[i%len(s.starts)]
	rot := (i / len(s.starts)) % windowArms
	win := s.pool[start : start+windowArms]
	return append(append([]dlsim.Arm(nil), win[rot:]...), win[:rot]...)
}

func (s *resubmitStack) op(ctx context.Context, i int, tr *tracer, root int) (*opOut, error) {
	return s.svc.runJob(ctx, dlsim.JobRequest{
		Spec:  &dlsim.Spec{Name: poolSpec, Arms: s.window(i)},
		Scale: "tiny", Seed: s.in.scaleSeed, Workers: engineWorkers,
	}, tr, root)
}

func (s *resubmitStack) service() *service { return s.svc }
func (s *resubmitStack) storeDir() string  { return s.svc.storeDir }
func (s *resubmitStack) close()            { s.svc.close() }
