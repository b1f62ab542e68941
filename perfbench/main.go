// Command perfbench is the repository's end-to-end benchmark: it drives
// one workload from spec in to results out through the public surface
// (the pkg/dlsim Runner and Client, the job service behind a loopback
// listener, a worker fleet), checks every result against the serial
// engine, and prints its metrics as one JSON line.
//
//	bash perfbench/run.sh --workload fig2-inproc --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced
// timed phase. With --trace 1 it runs that phase, then a traced one
// (spans around every call into a layer, a CPU profile), and reports
// the per-layer metrics; see README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"gossipmia/pkg/dlsim"
)

// procs is the benchmark host's core count; GOMAXPROCS is pinned to it
// so runs compare on any machine.
const procs = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig2-inproc, serve-arm-jobs, fleet-tiny, or resubmit-cached")
	seed := fs.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 adds a traced phase and reports the per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(procs)
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	out := filepath.Join(".bench_build", "perfbench")
	work := filepath.Join(out, fmt.Sprintf("work-%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	res, err := runWorkload(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, work, stderr)
	if err == nil && *trace == 1 {
		err = writeSpans(filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed)), res.spans)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	want := endToEndMetrics
	if *trace == 1 {
		want = perLayerMetrics
	}
	line, err := res.line(want)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// phase accumulates one timed phase. Wall time, CPU and allocation sum
// the operations' own intervals, so checking outputs between them is
// not measured.
type phase struct {
	ops, arms       int
	attempted, bad  int
	wall, cpu       time.Duration
	alloc           uint64
	gcCPU, busyCPU  float64
	jobs            dist // seconds per operation
	firstEvent      dist // ms from submission to the first event
	events          int
	msgs, bytesSent float64
	armSeconds      dist
	occupancy       []float64
	rssMB           dist // peak resident set during each operation
}

// counters is a snapshot of the process counters a phase diffs.
type counters struct {
	at      time.Time
	cpu     time.Duration
	alloc   uint64
	gc, all float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readCounters() counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return counters{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: s[0].Value.Uint64(),
		gc:    s[1].Value.Float64(),
		// Busy CPU is what GOMAXPROCS made available minus idle time.
		all: s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

// runWorkload sets the workload up, runs its timed phase (and, traced,
// a second one), checks every output, and computes the metrics.
func runWorkload(ctx context.Context, w workload, seed int64, length time.Duration, traced bool, dir string, log io.Writer) (*result, error) {
	var setups dist
	var st stack
	var in *inputs
	for i := 0; i < w.setups; i++ {
		if st != nil {
			st.close()
		}
		in = newInputs(seed)
		t0 := time.Now()
		var err error
		st, err = w.setup(ctx, in, filepath.Join(dir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups.add(time.Since(t0).Seconds())
	}
	defer st.close()

	ref := newReference(w.scale, in.scaleSeed)
	if err := prepareReference(ctx, st, ref, filepath.Join(dir, "reference")); err != nil {
		return nil, err
	}

	statz0, err := statzOf(ctx, st)
	if err != nil {
		return nil, err
	}
	// A traced run measures an untraced and a traced phase, half the
	// length each, so it takes about as long as an untraced run.
	if traced {
		length /= 2
	}
	plain, next, err := runPhase(ctx, w, st, ref, 0, length, nil)
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	var tp *phase
	var tr *tracer
	var prof bytes.Buffer
	statz1 := statz0
	if traced {
		if statz1, err = statzOf(ctx, st); err != nil {
			return nil, err
		}
		tr = newTracer()
		if svc := st.service(); svc != nil && svc.fleet != nil {
			svc.fleet.trace(tr)
		}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		tp, _, err = runPhase(ctx, w, st, ref, next, length, tr)
		pprof.StopCPUProfile()
		if svc := st.service(); svc != nil && svc.fleet != nil {
			svc.fleet.trace(nil)
		}
		if err != nil {
			return nil, err
		}
	}

	statz2, err := statzOf(ctx, st)
	if err != nil {
		return nil, err
	}
	// A rejected or reclaimed lease, or a fleet call that failed, is a
	// failed operation even when the job recovered from it.
	all := statsDelta(statz0, statz2)
	leaseFailures := int(all.Work.Rejected + all.Work.Reclaims)
	if svc := st.service(); svc != nil && svc.fleet != nil {
		leaseFailures += int(svc.fleet.errs.Load())
	}

	res.Attempted, res.Failed = plain.attempted, plain.bad+leaseFailures
	if tp != nil {
		res.Attempted += tp.attempted
		res.Failed += tp.bad
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	fmt.Fprintf(log, "%s seed=%d: %d ops, %d arms in %.2fs; job %s; peak rss %s; setup %s\n",
		w.name, seed, plain.ops, plain.arms, plain.wall.Seconds(), plain.jobs.summary("s"), plain.rssMB.summary("MB"), setups.summary("s"))
	if !traced {
		res.set("setup_s", setups.quantile(0.5))
		res.set("arms_per_s", float64(plain.arms)/plain.wall.Seconds())
		res.set("job_p50_s", plain.jobs.quantile(0.5))
		res.set("cpu_s_per_arm", plain.cpu.Seconds()/float64(plain.arms))
		res.set("alloc_mb_per_arm", float64(plain.alloc)/1e6/float64(plain.arms))
		res.set("peak_rss_mb", plain.rssMB.quantile(0.5))
		return res, nil
	}
	if err := layerMetrics(res, st, plain, tp, tr, statsDelta(statz1, statz2), prof.Bytes(), log); err != nil {
		return nil, err
	}
	res.spans = tr.snapshot()
	return res, nil
}

// statzOf reads the service's counters; an in-process stack has none
// and reads as all zero.
func statzOf(ctx context.Context, st stack) (dlsim.ServiceStats, error) {
	svc := st.service()
	if svc == nil {
		return dlsim.ServiceStats{}, nil
	}
	s, err := svc.client.Statz(ctx)
	if err != nil {
		return dlsim.ServiceStats{}, fmt.Errorf("statz: %w", err)
	}
	return *s, nil
}

// statsDelta returns the counters b gained over a.
func statsDelta(a, b dlsim.ServiceStats) dlsim.ServiceStats {
	d := b
	d.Work.Claims -= a.Work.Claims
	d.Work.Completes -= a.Work.Completes
	d.Work.Reclaims -= a.Work.Reclaims
	d.Work.Rejected -= a.Work.Rejected
	d.Work.StaleUploads -= a.Work.StaleUploads
	d.Work.LocalArms -= a.Work.LocalArms
	d.Work.RemoteArms -= a.Work.RemoteArms
	d.Cache.Hits -= a.Cache.Hits
	d.Cache.Misses -= a.Cache.Misses
	return d
}

// prepareReference computes, before the timed phase, the reference of
// every arm the stack runs.
func prepareReference(ctx context.Context, st stack, ref *reference, dir string) error {
	switch s := st.(type) {
	case *fig2Stack:
		return ref.computeDir(ctx, s.spec, dir)
	case *serveArmsStack:
		return ref.compute(ctx, s.arms)
	case *fleetStack:
		return ref.compute(ctx, s.arms)
	case *resubmitStack:
		return ref.compute(ctx, s.pool)
	}
	return fmt.Errorf("no reference for %T", st)
}

// runPhase runs whole cycles of operations, starting at op index
// first, until length has been measured, and checks each output
// against the reference. It returns the next unused op index.
func runPhase(ctx context.Context, w workload, st stack, ref *reference, first int, length time.Duration, tr *tracer) (*phase, int, error) {
	p := &phase{}
	rss := startRSSSampler(5 * time.Millisecond)
	defer rss.close()
	i := first
	for ; p.wall < length || (i-first)%w.cycle != 0; i++ {
		if w.freshHeap {
			debug.FreeOSMemory() // not measured
		}
		root := tr.begin("job", 0, "")
		rss.reset()
		before := readCounters()
		out, err := st.op(ctx, i, tr, root)
		after := readCounters()
		tr.end(root)
		p.rssMB.add(rss.peakMB())
		if err != nil {
			return nil, 0, fmt.Errorf("%s op %d: %w", w.name, i, err)
		}
		took := after.at.Sub(before.at)
		p.ops++
		p.arms += len(out.want)
		p.wall += took
		p.cpu += after.cpu - before.cpu
		p.alloc += after.alloc - before.alloc
		p.gcCPU += after.gc - before.gc
		p.busyCPU += after.all - before.all
		p.jobs.add(took.Seconds())
		p.check(ref, out)
		if tr != nil {
			if err := p.observe(out, took); err != nil {
				return nil, 0, err
			}
		}
	}
	return p, i, nil
}

// check verifies one operation's output: the job ended done with one
// result per arm, results.csv has one row per arm (and, for in-process
// runs, the serial engine's bytes), and each arm equals the serial
// engine's result.
func (p *phase) check(ref *reference, out *opOut) {
	n := len(out.want)
	p.attempted += n
	if out.deduped || out.status != dlsim.StatusDone || len(out.arms) != n {
		fmt.Fprintf(os.Stderr, "perfbench: job %s: status %q (deduped=%v), %d of %d arms: %s\n",
			out.job, out.status, out.deduped, len(out.arms), n, out.errMsg)
		p.bad += n
		return
	}
	if out.runDir != "" {
		rows, err := countCSVRows(out.runDir)
		ok := err == nil && rows == n
		if ok && ref.csv != nil {
			ok, err = ref.csvMatches(out.runDir)
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: job %s: results.csv has %d rows for %d arms or differs from the serial engine (err %v)\n",
				out.job, rows, n, err)
			p.bad++
		}
	}
	if bad := ref.mismatches(out.want, out.arms); bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: job %s: %d arms differ from the serial engine\n", out.job, bad)
		p.bad += bad
	}
}

// observe gathers the per-layer material of one traced operation.
func (p *phase) observe(out *opOut, took time.Duration) error {
	p.events += out.events
	if out.events > 0 {
		p.firstEvent.addDur(out.firstEvent, time.Millisecond)
	}
	for _, a := range out.arms {
		p.msgs += float64(a.MessagesSent)
		p.bytesSent += float64(a.BytesSent)
	}
	rep := out.report
	if rep == nil && out.runDir != "" {
		raw, err := os.ReadFile(filepath.Join(out.runDir, "manifest.json"))
		if err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
		rep = &dlsim.RunReport{}
		if err := json.Unmarshal(raw, rep); err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
	}
	if out.eventsDir != "" {
		n, err := countEventLines(out.eventsDir)
		if err != nil {
			return err
		}
		p.events += n
	}
	if rep != nil {
		var busy float64
		for _, a := range rep.Arms {
			if !a.Cached {
				p.armSeconds.add(a.ElapsedSeconds)
			}
			busy += a.ElapsedSeconds
		}
		p.occupancy = append(p.occupancy, busy/(took.Seconds()*engineWorkers))
	}
	return nil
}

// countEventLines counts the records in a run's JSONL event files.
func countEventLines(dir string) (int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return 0, fmt.Errorf("events: %w", err)
		}
		n += bytes.Count(raw, []byte("\n"))
	}
	return n, nil
}

// layerMetrics computes the per-layer metrics of a traced run.
func layerMetrics(res *result, st stack, plain, tp *phase, tr *tracer, statz dlsim.ServiceStats, prof []byte, log io.Writer) error {
	arms := float64(tp.arms)
	ms := func(name string) *dist {
		d := &dist{}
		for _, t := range durations(tr.snapshot(), name) {
			d.addDur(t, time.Millisecond)
		}
		return d
	}

	// Kernels, called directly at the Figure 2 training shapes.
	probe := tr.begin("tensor.probe", 0, "")
	shapes := figure2Shapes()
	for _, k := range []string{"nt", "tn", "nn"} {
		res.set("tensor.gemm_"+k+"_gflops", gemmGFLOPS(k, shapes[k], 200*time.Millisecond, tr, probe))
	}
	tr.end(probe)

	// CPU split by package from the traced phase's profile.
	byFunc, err := cpuByFunction(prof)
	if err != nil {
		return err
	}
	shares := cpuShareByLayer(byFunc)
	for _, layer := range []string{"tensor", "nn", "gossip", "netmodel", "par", "core", "mia", "metrics", "data", "store", "server", "http", "json"} {
		res.set(layer+".cpu_share", shares[layer])
	}
	printShares(log, shares)
	res.set("runtime.cpu_utilization", tp.cpu.Seconds()/(tp.wall.Seconds()*procs))
	res.set("runtime.gc_cpu_share", ratio(tp.gcCPU, tp.busyCPU))

	// Engine scheduling, from the run manifests.
	res.set("experiment.arm_occupancy", mean(tp.occupancy))
	res.set("experiment.arm_s_p50", tp.armSeconds.quantile(0.5))
	res.set("gossip.msgs_per_arm", tp.msgs/arms)
	res.set("gossip.mib_per_arm", tp.bytesSent/arms/(1<<20))
	res.set("sink.events_per_arm", float64(tp.events)/arms)

	// Service and fleet, from client-side spans and /v1/statz.
	res.set("server.submit_ms_p50", ms("Submit").quantile(0.5))
	res.set("server.await_ms_p50", ms("Await").quantile(0.5))
	res.set("server.first_event_ms_p50", tp.firstEvent.quantile(0.5))
	claims, uploads, execs := ms("ClaimWork"), ms("CompleteWork"), ms("ExecuteOrder")
	leaseClaims := &dist{}
	for _, s := range tr.snapshot() {
		if s.Name == "ClaimWork" && s.Group != "" {
			leaseClaims.addDur(s.dur(), time.Millisecond)
		}
	}
	res.set("distrib.claim_ms_p50", leaseClaims.quantile(0.5))
	res.set("distrib.claim_ms_p99", leaseClaims.quantile(0.99))
	res.set("distrib.upload_ms_p50", uploads.quantile(0.5))
	res.set("distrib.upload_ms_p99", uploads.quantile(0.99))
	res.set("distrib.exec_ms_p50", execs.quantile(0.5))
	res.set("distrib.idle_claim_ratio", ratio(float64(claims.n()-leaseClaims.n()), float64(claims.n())))
	busy := 0.0
	for _, d := range []*dist{execs, uploads, ms("Checksum")} {
		for _, x := range d.xs {
			busy += x / 1000
		}
	}
	slots := 0.0
	if svc := st.service(); svc != nil && svc.fleet != nil {
		slots = fleetSlots
	}
	res.set("distrib.slot_busy_share", ratio(busy, slots*tp.wall.Seconds()))
	checksum := &dist{}
	for _, t := range durations(tr.snapshot(), "Checksum") {
		checksum.addDur(t, time.Microsecond)
	}
	res.set("dlsim.checksum_us_p50", checksum.quantile(0.5))
	work, cache := statz.Work, statz.Cache
	res.set("distrib.useful_ratio", ratio(float64(work.Completes), float64(work.Claims)))
	res.set("distrib.reclaims", float64(work.Reclaims))
	res.set("distrib.rejected", float64(work.Rejected))
	res.set("distrib.stale", float64(work.StaleUploads))
	res.set("server.local_arms", float64(work.LocalArms))
	res.set("server.remote_arms", float64(work.RemoteArms))
	res.set("server.cache_hit_ratio", ratio(float64(cache.Hits), float64(cache.Hits+cache.Misses)))

	// The store the workload wrote, probed read-only.
	sp := &storeProbe{}
	if dir := st.storeDir(); dir != "" {
		if sp, err = probeStore(dir, tr); err != nil {
			return err
		}
	}
	res.set("store.open_ms", sp.openMs)
	res.set("store.scan_us_per_record", sp.scanUsPerRec)
	res.set("store.get_us_p50", sp.getUs.quantile(0.5))
	res.set("store.segments", float64(sp.segments))
	res.set("store.bytes_per_arm", sp.bytesPerRec)
	res.set("store.bloom_fp_ratio", sp.bloomFP)

	// The trace itself: job count, self-time closure, overhead.
	spans := tr.snapshot()
	worst, jobs := treeError(spans, "job")
	leaseWorst, _ := treeError(spans, "lease")
	res.set("bench.jobs", float64(jobs))
	res.set("trace.self_time_error", max(worst, leaseWorst))
	res.set("trace.job_p50_ratio", ratio(tp.jobs.quantile(0.5), plain.jobs.quantile(0.5)))
	res.set("trace.arms_per_s_ratio", ratio(float64(tp.arms)/tp.wall.Seconds(), float64(plain.arms)/plain.wall.Seconds()))
	printSelf(log, spans)
	if worst > 0.05 || leaseWorst > 0.05 {
		fmt.Fprintf(log, "perfbench: span self times miss the wall time by %.1f%% (job) / %.1f%% (lease)\n",
			100*worst, 100*leaseWorst)
		res.Correct = false
	}
	return nil
}

func printShares(log io.Writer, shares map[string]float64) {
	type kv struct {
		k string
		v float64
	}
	var rows []kv
	for k, v := range shares {
		rows = append(rows, kv{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	fmt.Fprint(log, "cpu by layer:")
	for _, r := range rows {
		if r.v >= 0.005 {
			fmt.Fprintf(log, " %s %.1f%%", r.k, 100*r.v)
		}
	}
	fmt.Fprintln(log)
}

func printSelf(log io.Writer, spans []span) {
	self := selfByName(spans)
	var names []string
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprint(log, "span self time:")
	for _, n := range names {
		fmt.Fprintf(log, " %s %.3fs", n, self[n].Seconds())
	}
	fmt.Fprintln(log)
}
