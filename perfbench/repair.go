package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mutation"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/testsuite"
)

// repairJob is one mwrepair run: scenario, seed and the -maxiter flag,
// with one probe worker and the standard learner.
type repairJob struct {
	scenario string
	seed     uint64
	maxIter  int
}

// paperScenarios are the cheap paper registry rows. The multi-second
// units/gzip rows are left out: one of them would outweigh the rest of
// the list.
var paperScenarios = []string{"libtiff-2005-12-14", "lighttpd-1806-1807", "Chart26", "Closure13", "Math8", "Math80"}

// deepScenarios are rows whose online search dominates the job: two
// multi-hunk rows, the three-edit paper row, and a drifting row whose
// suite changes mid-search.
var deepScenarios = []string{"mh-pair", "mh-triple", "Closure22", "drift-mixed"}

// Job lists: every paper row at paperSeeds seeds with mwrepair's default
// -maxiter, and every deep row at deepSeeds seeds with -maxiter
// deepMaxIter, which bounds the longest searches so a run holds enough
// jobs for a tail percentile.
const (
	paperSeeds     = 2
	deepSeeds      = 1
	deepMaxIter    = 120
	defaultMaxIter = 2000 // mwrepair's -maxiter default
)

func catalog(scenarios []string, seeds int, maxIter int) []repairJob {
	var out []repairJob
	for _, s := range scenarios {
		for seed := 1; seed <= seeds; seed++ {
			out = append(out, repairJob{scenario: s, seed: uint64(seed), maxIter: maxIter})
		}
	}
	return out
}

// repairOut is one executed repair job with everything verification and
// layer replay need.
type repairOut struct {
	job     repairJob
	sc      *scenario.Scenario
	pl      *pool.Pool
	res     core.Result
	err     error
	arms    *armCounter // traced passes only
	latency time.Duration
}

// runRepair executes exactly what cmd/mwrepair does after parsing its
// flags: Generate, BuildPool, RepairWithAlgorithm with the standard
// learner, with one probe worker. When spans is non-nil each layer call
// is recorded and the online phase's probed arms are counted through the
// program's own deterministic event stream.
func runRepair(j repairJob, jobID int, spans *spanLog) *repairOut {
	out := &repairOut{job: j}
	root, endJob := spans.begin(jobID, 0, "job")

	prof, err := scenario.ByName(j.scenario)
	if err != nil {
		out.err = err
		return out
	}
	_, end := spans.begin(jobID, root, "scenario.generate")
	out.sc = scenario.Generate(prof)
	end()

	r := rng.New(j.seed)
	_, end = spans.begin(jobID, root, "pool.build")
	out.pl = out.sc.BuildPool(1, r.Split())
	end()

	cfg := core.Config{
		MaxIter:          j.maxIter,
		Workers:          1,
		MaxX:             prof.Options,
		Drift:            out.sc.Drift,
		CongestionLambda: prof.CongestionLambda,
	}
	if spans != nil {
		out.arms = newArmCounter()
		cfg.Trace = obs.New(out.arms)
	}
	_, end = spans.begin(jobID, root, "core.repair")
	out.res, out.err = core.RepairWithAlgorithm(context.Background(), "standard", out.pl, out.sc.Suite, r.Split(), cfg)
	end()
	out.latency = endJob()
	return out
}

// repairDigest is a job's deterministic fields. Warm store hits change
// evaluation counts but never these.
func repairDigest(scenarioName string, seed uint64, maxIter int, repaired bool, iters int, probes int64, patch []mutation.Mutation) string {
	ids := make([]string, len(patch))
	for i, m := range patch {
		ids[i] = m.ID()
	}
	return fmt.Sprintf("%s seed=%d maxiter=%d repaired=%v iterations=%d probes=%d patch=%s",
		scenarioName, seed, maxIter, repaired, iters, probes, strings.Join(ids, ","))
}

// activeSuite is the suite a repair was found against: the drift steps
// the search applied before the repairing cycle, or the original suite.
func activeSuite(sc *scenario.Scenario, driftSteps int) *testsuite.Suite {
	if driftSteps > 0 && sc.Drift != nil {
		return sc.Drift.Steps[driftSteps-1].Suite
	}
	return sc.Suite
}

// verifyPatch re-applies a reported patch to the original program and
// re-runs the full suite: the result must be a repair. An unrepaired job
// is a valid outcome and passes.
func verifyPatch(sc *scenario.Scenario, suite *testsuite.Suite, repaired bool, patch []mutation.Mutation) error {
	if !repaired {
		return nil
	}
	if len(patch) == 0 {
		return fmt.Errorf("repaired with an empty patch")
	}
	for _, m := range patch {
		if err := m.Validate(sc.Program.Len()); err != nil {
			return fmt.Errorf("invalid patch: %w", err)
		}
	}
	prog := mutation.Apply(sc.Program, patch)
	if f := testsuite.NewRunner(suite).Eval(context.Background(), prog); !f.Repair() {
		return fmt.Errorf("patch does not repair: %s", f)
	}
	return nil
}

// record verifies a finished job and turns it into a jobRecord.
func (o *repairOut) record(rep *report) jobRecord {
	rec := jobRecord{latency: o.latency, ok: o.err == nil}
	if o.err != nil {
		rep.fail("%s seed %d: %v", o.job.scenario, o.job.seed, o.err)
		return rec
	}
	res := o.res
	rec.digest = repairDigest(o.job.scenario, o.job.seed, o.job.maxIter, res.Repaired, res.Iterations, res.Probes, res.Patch)
	st := o.pl.Stats()
	rec.evals = int64(st.Evaluated) - st.StoreHits + res.FitnessEvals
	err := verifyPatch(o.sc, activeSuite(o.sc, res.DriftSteps), res.Repaired, res.Patch)
	if err == nil && res.Repaired && mutation.Apply(o.sc.Program, res.Patch).String() != res.Program.String() {
		err = fmt.Errorf("re-applied patch differs from the reported program")
	}
	if err == nil && (res.Cancelled || res.Degraded) {
		err = fmt.Errorf("run cancelled or degraded")
	}
	if err != nil {
		rec.ok = false
		rep.fail("%s seed %d: %v", o.job.scenario, o.job.seed, err)
	}
	return rec
}

func runRepairPaper(seed uint64, seconds int, traced bool, spans *spanLog) *report {
	return runRepairWorkload(catalog(paperScenarios, paperSeeds, defaultMaxIter), seed, seconds, traced, spans)
}

func runRepairDeep(seed uint64, seconds int, traced bool, spans *spanLog) *report {
	return runRepairWorkload(catalog(deepScenarios, deepSeeds, deepMaxIter), seed, seconds, traced, spans)
}

// runRepairWorkload runs the list closed-loop with one client. Set-up is
// one untimed warm-up job, so heap growth and first-touch page faults
// land there rather than in the first timed job.
func runRepairWorkload(cat []repairJob, seed uint64, seconds int, traced bool, spans *spanLog) *report {
	rep := &report{correct: true}
	setup := setupMedian(rep, func() error {
		return runRepair(repairJob{scenario: paperScenarios[0], seed: 1, maxIter: defaultMaxIter}, 0, nil).err
	})
	rounds := roundsFor(seconds, traced)
	pass := func(spans *spanLog) (*pass, []*repairOut) {
		return runRounds(rep, cat, seed, rounds,
			func(j repairJob, id int) *repairOut { return runRepair(j, id, spans) },
			func(outs []*repairOut) []jobRecord {
				recs := make([]jobRecord, len(outs))
				for i, o := range outs {
					recs[i] = o.record(rep)
				}
				return recs
			})
	}
	untraced, _ := pass(nil)
	registryDigest(rep, untraced)
	if !traced {
		endToEnd(rep, untraced, setup)
		return rep
	}
	runtimeLayer(rep, untraced)
	tracedPass, outs := pass(spans)
	traceOverhead(rep, untraced, tracedPass)
	repairLayers(rep, outs, spans, rounds)
	return rep
}

// registryDigest prints the digest of a pass's distinct registry jobs.
// serve-store submits exactly repair-paper's list, so the two workloads
// print the same registry digest: warm store hits change how many
// evaluations a job runs, never its result.
func registryDigest(rep *report, p *pass) {
	seen := map[string]bool{}
	var lines []string
	for _, r := range p.rounds[0].records {
		if r.digest != "" && !strings.HasPrefix(r.digest, inlineName+" ") && !seen[r.digest] {
			seen[r.digest] = true
			lines = append(lines, r.digest)
		}
	}
	rep.notef("registry digest %s over %d distinct jobs", digestOf(lines), len(lines))
}
