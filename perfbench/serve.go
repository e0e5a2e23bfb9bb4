package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/testsuite"
)

const (
	serveJobWorkers = 2 // daemon job workers; every job runs one probe worker
	serveClients    = 2 // closed-loop HTTP clients
	servePoll       = 2 * time.Millisecond
	// One round's list: serveWarmSeeds seeds per paper row are
	// pre-warmed during set-up and each submitted serveWarmRepeats times;
	// the rest of repair-paper's seeds are new to the store; serveInline
	// custom-source jobs run between them.
	serveWarmSeeds   = 1
	serveWarmRepeats = 3
	serveInline      = 40
)

// inlineSrc is a custom TinyLang subject (the daemon's inline-source
// path): `set acc = acc + 7` is reachable only for n >= 100, so the
// positives pass and the negative fails until a mutation removes it.
const inlineSrc = `input n
input m
set acc = n + m
if n < 100 goto ok
set acc = acc + 7
label ok
print acc
halt
`

func inlineSuite() *server.SuiteSpec {
	return &server.SuiteSpec{
		Positive: []server.TestSpec{
			{Name: "small", Input: []int64{1, 2}, Want: []int64{3}},
			{Name: "mid", Input: []int64{5, 5}, Want: []int64{10}},
			{Name: "edge", Input: []int64{99, 0}, Want: []int64{99}},
		},
		Negative: []server.TestSpec{
			{Name: "big", Input: []int64{500, 1}, Want: []int64{501}},
		},
	}
}

const (
	inlineName       = "inline"
	inlinePoolTarget = 24
)

func warmJobs() []repairJob { return catalog(paperScenarios, serveWarmSeeds, defaultMaxIter) }

func registrySpec(j repairJob) server.Spec {
	return server.Spec{Scenario: j.scenario, Seed: j.seed, Workers: 1, MaxIter: j.maxIter, Algorithm: "standard"}
}

func serveCatalog() []server.Spec {
	var out []server.Spec
	for _, j := range warmJobs() {
		for i := 0; i < serveWarmRepeats; i++ {
			out = append(out, registrySpec(j))
		}
	}
	// The registry jobs are exactly repair-paper's list, so the two
	// workloads' registry digests can be compared.
	for _, j := range catalog(paperScenarios, paperSeeds, defaultMaxIter) {
		if j.seed > serveWarmSeeds {
			out = append(out, registrySpec(j))
		}
	}
	for i := 1; i <= serveInline; i++ {
		out = append(out, server.Spec{
			Program: inlineSrc, Name: inlineName, Suite: inlineSuite(), PoolTarget: inlinePoolTarget,
			Workers: 1, MaxIter: defaultMaxIter, Seed: uint64(i), Algorithm: "standard",
		})
	}
	return out
}

// daemon is an in-process mwrepaird: store, manager, handler and a
// loopback listener, started as cmd/repairbench starts it.
type daemon struct {
	dir  string
	st   *store.Store
	mgr  *server.Manager
	srv  *http.Server
	url  string
	errc chan error
	hc   *http.Client
}

func startDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, errc: make(chan error, 1)}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	d.st = st
	d.mgr = server.NewManager(server.Config{
		Workers:      serveJobWorkers,
		RetryAfter:   time.Second,
		DrainTimeout: 5 * time.Second,
		Store:        st,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = st.Close() // already failing; the listen error is the one to report
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.srv = &http.Server{Handler: server.Handler(d.mgr)}
	go func() { d.errc <- d.srv.Serve(ln) }()
	d.url = "http://" + ln.Addr().String()
	d.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}}
	return d, nil
}

// stop drains the daemon, flushes and closes the store, and waits for
// the HTTP server goroutine to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := d.mgr.Shutdown(ctx)
	httpErr := d.srv.Shutdown(ctx)
	if err := <-d.errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	d.hc.CloseIdleConnections()
	flushErr := d.st.Flush()
	return errors.Join(drainErr, httpErr, flushErr, d.st.Close())
}

// serveOut is one job as the client saw it.
type serveOut struct {
	spec     server.Spec
	status   server.Status
	err      error
	latency  time.Duration
	rejected int64
}

// submit POSTs a job, waiting out 429/503 for the server's Retry-After.
func (d *daemon) submit(ctx context.Context, spec server.Spec, rejected *int64) (server.Status, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return server.Status{}, err
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return server.Status{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := d.hc.Do(req)
		if err != nil {
			return server.Status{}, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st server.Status
			err := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			return st, err
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			*rejected++
			wait := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return server.Status{}, ctx.Err()
			}
		default:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			return server.Status{}, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		}
	}
}

// await polls the job until it is terminal.
func (d *daemon) await(ctx context.Context, id string) (server.Status, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/jobs/"+id, nil)
		if err != nil {
			return server.Status{}, err
		}
		resp, err := d.hc.Do(req)
		if err != nil {
			return server.Status{}, err
		}
		var st server.Status
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %s: HTTP %d", id, resp.StatusCode)
		} else {
			err = json.NewDecoder(resp.Body).Decode(&st)
		}
		resp.Body.Close()
		if err != nil {
			return server.Status{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-time.After(servePoll):
		case <-ctx.Done():
			return server.Status{}, ctx.Err()
		}
	}
}

// drive runs the list through serveClients closed-loop clients: each
// takes the next job, submits it, and polls until it sees a terminal
// state before taking another.
func (d *daemon) drive(list []server.Spec, jobBase int, spans *spanLog) []serveOut {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	outs := make([]serveOut, len(list))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				o := &outs[i]
				o.spec = list[i]
				id := jobBase + i + 1
				root, endJob := spans.begin(id, 0, "job")
				_, end := spans.begin(id, root, "http.submit")
				st, err := d.submit(ctx, o.spec, &o.rejected)
				end()
				if err == nil {
					_, end = spans.begin(id, root, "http.poll")
					st, err = d.await(ctx, st.ID)
					end()
				}
				o.latency = endJob()
				o.status, o.err = st, err
			}
		}()
	}
	wg.Wait()
	return outs
}

// subjects caches each job's scenario for verification.
type subjects map[string]*scenario.Scenario

func (s subjects) get(spec server.Spec) (*scenario.Scenario, error) {
	key := spec.Scenario
	if key == "" {
		key = "inline:" + spec.Name
	}
	if sc, ok := s[key]; ok {
		return sc, nil
	}
	var sc *scenario.Scenario
	if spec.Scenario != "" {
		prof, err := scenario.ByName(spec.Scenario)
		if err != nil {
			return nil, err
		}
		sc = scenario.Generate(prof)
	} else {
		suite := &testsuite.Suite{}
		for _, t := range spec.Suite.Positive {
			suite.Positive = append(suite.Positive, testsuite.Test{Name: t.Name, Input: t.Input, Want: t.Want, MaxSteps: t.MaxSteps})
		}
		for _, t := range spec.Suite.Negative {
			suite.Negative = append(suite.Negative, testsuite.Test{Name: t.Name, Input: t.Input, Want: t.Want, MaxSteps: t.MaxSteps})
		}
		var err error
		if sc, err = scenario.FromSource(spec.Name, spec.Program, suite, spec.PoolTarget, 0); err != nil {
			return nil, err
		}
	}
	s[key] = sc
	return sc, nil
}

func (o *serveOut) name() string {
	if o.spec.Scenario != "" {
		return o.spec.Scenario
	}
	return o.spec.Name
}

// record verifies a job the client saw finish.
func (o *serveOut) record(rep *report, subj subjects) jobRecord {
	rec := jobRecord{latency: o.latency}
	err := o.err
	if err == nil && o.status.State != server.StateDone {
		err = fmt.Errorf("job ended %s: %s", o.status.State, o.status.Error)
	}
	var res *server.Result
	if err == nil {
		if res = o.status.Result; res == nil {
			err = fmt.Errorf("done without a result")
		}
	}
	var sc *scenario.Scenario
	if err == nil {
		sc, err = subj.get(o.spec)
	}
	if err == nil {
		rec.digest = repairDigest(o.name(), o.spec.Seed, o.spec.MaxIter, res.Repaired, res.Iterations, res.Probes, res.Patch)
		rec.evals = int64(res.PoolEvaluated) - res.PoolStoreHits + res.FitnessEvals
		err = verifyPatch(sc, activeSuite(sc, res.DriftSteps), res.Repaired, res.Patch)
	}
	if err != nil {
		rep.fail("%s seed %d: %v", o.name(), o.spec.Seed, err)
		return rec
	}
	rec.ok = true
	return rec
}

// serveSetup is everything before a round's first timed job: open a
// fresh store, start the daemon, pre-warm the store with the warm jobs
// and flush it.
func serveSetup(rep *report, dir string) (*daemon, time.Duration) {
	t0 := time.Now()
	d, err := startDaemon(dir)
	if err != nil {
		rep.fail("start daemon: %v", err)
		return nil, 0
	}
	var warm []server.Spec
	for _, j := range warmJobs() {
		warm = append(warm, registrySpec(j))
	}
	for _, o := range d.drive(warm, 0, nil) {
		if o.err != nil || o.status.State != server.StateDone {
			rep.fail("pre-warm %s seed %d: %v %s", o.spec.Scenario, o.spec.Seed, o.err, o.status.Error)
		}
	}
	if err := d.st.Flush(); err != nil {
		rep.fail("pre-warm flush: %v", err)
	}
	return d, time.Since(t0)
}

// servePass drives the list once per round, each round on a freshly set
// up daemon and store so every round does the same work. It returns the
// median set-up time, the first round's jobs, and the last round's
// daemon, still running, for the caller to inspect and stop.
func servePass(rep *report, base string, seed uint64, rounds int, spans *spanLog, subj subjects) (*pass, time.Duration, []serveOut, *daemon) {
	p := &pass{}
	order := rng.New(seed)
	var setups []time.Duration
	var first []serveOut
	var d *daemon
	for r := 0; r < rounds; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				rep.fail("stop daemon: %v", err)
			}
			os.RemoveAll(d.dir)
		}
		var setup time.Duration
		if d, setup = serveSetup(rep, filepath.Join(base, fmt.Sprintf("round%d", r))); d == nil {
			return p, 0, first, nil
		}
		setups = append(setups, setup)
		list := shuffled(serveCatalog(), order)
		start := sampleProc()
		outs := d.drive(list, r*len(list), spans)
		end := sampleProc()
		recs := make([]jobRecord, len(outs))
		for i := range outs {
			recs[i] = outs[i].record(rep, subj)
		}
		p.add(rep, recs, start, end)
		if r == 0 {
			first = outs
		}
	}
	return p, medianDuration(setups), first, d
}

func runServeStore(seed uint64, seconds int, traced bool, spans *spanLog) *report {
	rep := &report{correct: true}
	base := filepath.Join(".bench_build", "tmp", fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(base)
	rounds := roundsFor(seconds, traced)
	subj := subjects{}

	untraced, setup, _, d := servePass(rep, filepath.Join(base, "untraced"), seed, rounds, nil, subj)
	if d == nil {
		return rep
	}
	if err := d.stop(); err != nil {
		rep.fail("stop daemon: %v", err)
	}
	registryDigest(rep, untraced)
	if !traced {
		endToEnd(rep, untraced, setup)
		return rep
	}
	runtimeLayer(rep, untraced)

	tracedPass, _, outs, d := servePass(rep, filepath.Join(base, "traced"), seed, rounds, spans, subj)
	if d == nil {
		return rep
	}
	traceOverhead(rep, untraced, tracedPass)
	var evals []store.EvalRecord
	for _, sc := range subj {
		evals = append(evals, d.st.Evals(sc.Suite.Fingerprint())...)
	}
	drops := d.st.Stats().Dropped
	if err := d.stop(); err != nil {
		rep.fail("stop daemon: %v", err)
	}
	_, endOpen := spans.begin(0, 0, "store.open")
	st, err := store.Open(store.Options{Dir: d.dir})
	warmStart := endOpen()
	if err != nil {
		rep.fail("reopen store: %v", err)
	} else if err := st.Close(); err != nil {
		rep.fail("close store: %v", err)
	}
	rep.set("store.warm_start_ms", ms(warmStart), "ms")
	rep.set("store.flush_ms", ms(replayFlush(rep, filepath.Join(base, "flush"), evals, spans)), "ms")
	rep.set("store.pending_drops", float64(drops), "count")
	serveLayers(rep, outs)
	return rep
}

// replayFlush writes the run's evaluation records into a fresh store
// whose write-behind never fires on its own, and times the one Flush
// that persists them all.
func replayFlush(rep *report, dir string, evals []store.EvalRecord, spans *spanLog) time.Duration {
	st, err := store.Open(store.Options{Dir: dir, FlushEvery: len(evals) + 1, FlushInterval: -1})
	if err != nil {
		rep.fail("open flush store: %v", err)
		return 0
	}
	for _, e := range evals {
		st.PutEval(e)
	}
	_, end := spans.begin(0, 0, "store.flush")
	err = st.Flush()
	d := end()
	if err = errors.Join(err, st.Close()); err != nil {
		rep.fail("flush replay: %v", err)
	}
	rep.notef("store.flush_ms is one Flush of the run's %d evaluation records", len(evals))
	return d
}

// serveLayers reports the server, store and per-job counters of a traced
// serve pass, and times scenario.Generate as the daemon calls it for
// each registry job.
func serveLayers(rep *report, outs []serveOut) {
	var queue, exec, overhead, gen []float64
	var rejected, submits int64
	var warmHits, warmLookups, cands, safe, iters, probes, hits, lookups float64
	for _, o := range outs {
		rejected += o.rejected
		submits += o.rejected + 1
		st, res := o.status, o.status.Result
		if o.err != nil || res == nil {
			continue
		}
		q, e, ok := serverTimes(st)
		if ok {
			queue = append(queue, ms(q))
			exec = append(exec, ms(e))
			overhead = append(overhead, ms(o.latency-e))
		}
		cands += float64(res.PoolEvaluated)
		safe += float64(res.PoolSize)
		iters += float64(res.Iterations)
		probes += float64(res.Probes)
		hits += float64(res.CacheHits)
		lookups += float64(res.CacheHits + res.FitnessEvals)
		if o.spec.Scenario != "" {
			warmHits += float64(res.PoolStoreHits + res.WarmHits)
			warmLookups += float64(res.PoolEvaluated) + float64(res.CacheHits+res.FitnessEvals)
			prof, err := scenario.ByName(o.spec.Scenario)
			if err == nil {
				t0 := time.Now()
				scenario.Generate(prof)
				gen = append(gen, ms(time.Since(t0)))
			}
		}
	}
	n := float64(len(outs))
	rep.set("server.queue_wait_ms.p50", median(queue), "ms")
	rep.set("server.exec_ms.p50", median(exec), "ms")
	rep.set("server.overhead_ms.p50", median(overhead), "ms")
	rep.set("server.rejected_ratio", ratio(float64(rejected), float64(submits)), "ratio")
	rep.set("store.warm_hit_ratio", ratio(warmHits, warmLookups), "ratio")
	rep.set("scenario.generate_ms", mean(gen), "ms")
	rep.set("pool.candidates_per_job", cands/n, "count")
	rep.set("pool.safe_ratio", ratio(safe, cands), "ratio")
	rep.set("core.iterations_per_job", iters/n, "count")
	rep.set("core.probes_per_job", probes/n, "count")
	rep.set("core.cache_hit_ratio", ratio(hits, lookups), "ratio")
}

// serverTimes decodes the daemon's queue wait and execution time from a
// job's status timestamps.
func serverTimes(st server.Status) (queue, exec time.Duration, ok bool) {
	q, err1 := time.Parse(time.RFC3339Nano, st.QueuedAt)
	s, err2 := time.Parse(time.RFC3339Nano, st.StartedAt)
	f, err3 := time.Parse(time.RFC3339Nano, st.FinishedAt)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, false
	}
	return s.Sub(q), f.Sub(s), true
}
