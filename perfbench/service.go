package main

// The serving stack the service workloads drive: the job service from
// internal/server behind a loopback HTTP listener, an SDK client, and
// optionally a fleet of worker slots pulling arms over the same client
// calls `dlsim worker` makes.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gossipmia/internal/server"
	"gossipmia/pkg/dlsim"
)

type service struct {
	svc       *server.Server
	hs        *http.Server
	served    chan error
	transport *http.Transport
	client    *dlsim.Client
	ckptDir   string
	storeDir  string
	fleet     *fleet
}

// startService starts the job service on an ephemeral loopback port
// and waits until it answers its health check.
func startService(ctx context.Context, cfg server.Config) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		svc:       server.New(cfg),
		served:    make(chan error, 1),
		transport: &http.Transport{MaxIdleConnsPerHost: 8},
		ckptDir:   cfg.CheckpointDir,
		storeDir:  cfg.StoreDir,
	}
	s.hs = &http.Server{Handler: s.svc}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = dlsim.NewClient("http://"+ln.Addr().String(),
		dlsim.WithHTTPClient(&http.Client{Transport: s.transport}))
	if err := s.client.Health(ctx); err != nil {
		s.close()
		return nil, fmt.Errorf("health: %w", err)
	}
	return s, nil
}

// close stops the fleet, the service and the listener, and waits for
// each to finish.
func (s *service) close() {
	if s.fleet != nil {
		s.fleet.stop()
	}
	s.svc.Close()
	if err := s.hs.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http close:", err)
	}
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: http serve:", err)
	}
	s.transport.CloseIdleConnections()
}

// runJob submits one job, follows its event stream to the end, then
// awaits its final status — the closed-loop client of every service
// workload. root is the op's span; the job's ID becomes its group.
func (s *service) runJob(ctx context.Context, req dlsim.JobRequest, tr *tracer, root int) (*opOut, error) {
	t0 := time.Now()
	id := tr.begin("Submit", root, "")
	st, err := s.client.Submit(ctx, req)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	tr.rename(root, "job", st.ID)
	out := &opOut{want: req.Spec.Arms, job: st.ID, deduped: st.Deduped}
	id = tr.begin("Events", root, st.ID)
	err = s.client.Events(ctx, st.ID, func(dlsim.Event) error {
		if out.events == 0 {
			out.firstEvent = time.Since(t0)
		}
		out.events++
		return nil
	})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("events %s: %w", st.ID, err)
	}
	id = tr.begin("Await", root, st.ID)
	fin, err := s.client.Await(ctx, st.ID, 20*time.Millisecond)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("await %s: %w", st.ID, err)
	}
	out.status, out.errMsg = fin.Status, fin.Error
	if fin.Result != nil {
		out.arms = fin.Result.Arms
	}
	if s.ckptDir != "" && len(fin.Key) >= 16 {
		out.runDir = filepath.Join(s.ckptDir, fin.Key[:16])
	}
	return out, nil
}

// runDone runs an untimed job, a warm-up or a pool, and requires it to
// end done.
func (s *service) runDone(ctx context.Context, req dlsim.JobRequest) error {
	out, err := s.runJob(ctx, req, nil, 0)
	if err == nil && out.status != dlsim.StatusDone {
		err = fmt.Errorf("job %s: %s: %s", out.job, out.status, out.errMsg)
	}
	return err
}

// fleet is a set of worker slots, each a claim → execute → checksum →
// upload loop over the SDK client, as `dlsim worker -parallel N` runs.
// Arms are tiny, far shorter than the lease's heartbeat interval, so
// the slots send no heartbeats.
type fleet struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	tr     atomic.Pointer[tracer]
	// errs counts failed claims, executions and uploads.
	errs atomic.Int64
}

// startFleet registers slots worker slots and starts their loops.
func startFleet(ctx context.Context, client *dlsim.Client, name string, slots int) (*fleet, error) {
	ctx, cancel := context.WithCancel(ctx)
	f := &fleet{cancel: cancel}
	for i := 0; i < slots; i++ {
		who := fmt.Sprintf("%s/%d", name, i)
		if err := client.RegisterWorker(ctx, who); err != nil {
			f.stop()
			return nil, fmt.Errorf("register %s: %w", who, err)
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.loop(ctx, client, who)
		}()
	}
	return f, nil
}

// trace directs the slots' spans to tr (nil stops recording).
func (f *fleet) trace(tr *tracer) { f.tr.Store(tr) }

func (f *fleet) stop() {
	f.cancel()
	f.wg.Wait()
}

func (f *fleet) loop(ctx context.Context, client *dlsim.Client, who string) {
	defer func() {
		byeCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		if err := client.DeregisterWorker(byeCtx, who); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: deregister:", err)
		}
	}()
	for ctx.Err() == nil {
		tr := f.tr.Load()
		root := tr.begin("lease", 0, "")
		id := tr.begin("ClaimWork", root, "")
		order, err := client.ClaimWork(ctx, who, time.Second)
		tr.end(id)
		if err != nil || order == nil {
			tr.rename(root, "idle", "")
			tr.end(root)
			if err != nil && ctx.Err() == nil {
				f.errs.Add(1)
				time.Sleep(50 * time.Millisecond)
			}
			continue
		}
		tr.rename(root, "lease", order.Lease)
		tr.rename(id, "ClaimWork", order.Lease)
		f.execute(ctx, client, order, tr, root)
		tr.end(root)
	}
}

// execute runs one claimed order and uploads the outcome.
func (f *fleet) execute(ctx context.Context, client *dlsim.Client, order *dlsim.WorkOrder, tr *tracer, root int) {
	start := time.Now()
	id := tr.begin("ExecuteOrder", root, order.Lease)
	res, runErr := dlsim.ExecuteOrder(context.WithoutCancel(ctx), order, 1)
	tr.end(id)
	result := dlsim.WorkResult{ElapsedSeconds: time.Since(start).Seconds()}
	if runErr != nil {
		result.Error = runErr.Error()
	} else {
		result.Arm = res
		id = tr.begin("Checksum", root, order.Lease)
		result.Sum = res.Checksum()
		tr.end(id)
	}
	upCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
	defer cancel()
	id = tr.begin("CompleteWork", root, order.Lease)
	_, err := client.CompleteWork(upCtx, order.Lease, result)
	tr.end(id)
	if err != nil || runErr != nil {
		f.errs.Add(1)
	}
}

// countCSVRows returns the number of data rows in a run directory's
// results.csv.
func countCSVRows(runDir string) (int, error) {
	raw, err := os.ReadFile(filepath.Join(runDir, "results.csv"))
	if err != nil {
		return 0, err
	}
	return strings.Count(string(raw), "\n") - 1, nil
}
