package main

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/lang"
	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/testsuite"
)

// Replay sample sizes per job. Each per-call cost is a mean over this
// many calls on the job's own program and pool.
const (
	replayCandidates = 32 // phase-1 candidates and phase-2 compositions
	replayApplyReps  = 16 // Apply calls per composition size
	replayEvals      = 16 // Runner.Eval misses (and as many hits)
)

// applySizes are the composition sizes the Apply cost is reported at.
var applySizes = []int{1, 16, 64}

// probeCost is the mean cost of one evaluation step, split by layer.
type probeCost struct {
	apply, key, interp time.Duration
}

// layerCosts are one job's replayed per-call costs.
type layerCosts struct {
	applyAt   [3]time.Duration // per Apply call at applySizes
	applyKB64 float64          // heap KB allocated per Apply at x=64
	key       time.Duration    // ProgramKey on an x=1 mutant
	evalMiss  time.Duration
	evalHit   time.Duration
	runTotal  time.Duration // all lang.Run calls of the replay
	runCalls  int
	candidate probeCost // phase 1: one x=1 candidate's safety check
	composite probeCost // phase 2: one probe at the search's own x mix
}

// runTest is testsuite.RunTest with the interpreter call timed.
func (c *layerCosts) runTest(p *lang.Program, tc testsuite.Test) bool {
	t0 := time.Now()
	res := lang.Run(p, lang.Options{Input: tc.Input, MaxSteps: tc.MaxSteps})
	c.runTotal += time.Since(t0)
	c.runCalls++
	if res.Err != nil || len(res.Output) != len(tc.Want) {
		return false
	}
	for i := range tc.Want {
		if res.Output[i] != tc.Want[i] {
			return false
		}
	}
	return true
}

// step replays one evaluation the way the search performs it: Apply the
// composition, hash the mutant, then run positive tests until the first
// failure and, for a safe mutant with negatives (phase 2), negative tests
// until the first failure.
func (c *layerCosts) step(o *repairOut, muts []mutation.Mutation, negatives bool) probeCost {
	t0 := time.Now()
	mutant := mutation.Apply(o.sc.Program, muts)
	t1 := time.Now()
	testsuite.ProgramKey(mutant)
	t2 := time.Now()
	before := c.runTotal
	safe := true
	for _, tc := range o.sc.Suite.Positive {
		if !c.runTest(mutant, tc) {
			safe = false
			break
		}
	}
	if safe && negatives {
		for _, tc := range o.sc.Suite.Negative {
			if !c.runTest(mutant, tc) {
				break
			}
		}
	}
	return probeCost{apply: t1.Sub(t0), key: t2.Sub(t1), interp: c.runTotal - before}
}

func (pc *probeCost) add(x probeCost) {
	pc.apply += x.apply
	pc.key += x.key
	pc.interp += x.interp
}

func (pc *probeCost) div(n int) {
	d := time.Duration(n)
	pc.apply /= d
	pc.key /= d
	pc.interp /= d
}

// replay times each layer's public function on the job's own program and
// pool. Phase-1 candidates are drawn as pool.Precompute draws them
// (mutation.Random over covered statements); phase-2 compositions are
// drawn with pool.Sample at sizes taken from the search's probed-arm
// histogram.
func replay(o *repairOut) layerCosts {
	var c layerCosts
	r := rng.New(o.job.seed ^ 0x9e3779b97f4a7c15)
	prog := o.sc.Program
	covered := testsuite.CoveredIndices(prog, o.sc.Suite)

	var singles [][]mutation.Mutation
	for i := 0; i < replayCandidates; i++ {
		m := []mutation.Mutation{mutation.Random(prog, covered, r)}
		singles = append(singles, m)
		c.candidate.add(c.step(o, m, false))
	}
	c.candidate.div(replayCandidates)

	sizes := armSizes(o, r, replayCandidates)
	for _, x := range sizes {
		c.composite.add(c.step(o, o.pl.Sample(x, r), true))
	}
	c.composite.div(len(sizes))

	for i, x := range applySizes {
		x = min(x, o.pl.Size())
		comps := make([][]mutation.Mutation, replayApplyReps)
		for k := range comps {
			comps[k] = o.pl.Sample(x, r)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for _, m := range comps {
			mutation.Apply(prog, m)
		}
		c.applyAt[i] = time.Since(t0) / replayApplyReps
		runtime.ReadMemStats(&ms1)
		if i == len(applySizes)-1 {
			c.applyKB64 = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / replayApplyReps
		}
	}

	mutants := make([]*lang.Program, replayEvals)
	for i := range mutants {
		mutants[i] = mutation.Apply(prog, singles[i%len(singles)])
	}
	t0 := time.Now()
	for _, m := range mutants {
		testsuite.ProgramKey(m)
	}
	c.key = time.Since(t0) / replayEvals

	runner := testsuite.NewRunner(o.sc.Suite)
	ctx := context.Background()
	t0 = time.Now()
	for _, m := range mutants {
		runner.Eval(ctx, m)
	}
	t1 := time.Now()
	for _, m := range mutants {
		runner.Eval(ctx, m)
	}
	t2 := time.Now()
	c.evalMiss = t1.Sub(t0) / replayEvals
	c.evalHit = t2.Sub(t1) / replayEvals
	return c
}

// armSizes draws n composition sizes from the job's probed-arm
// histogram (arm a composes a+1 mutations), capped at the pool size.
func armSizes(o *repairOut, r *rng.RNG, n int) []int {
	arms := make([]int, 0, len(o.arms.counts))
	for a := range o.arms.counts {
		arms = append(arms, a)
	}
	sort.Ints(arms)
	w := make([]float64, len(arms))
	for i, a := range arms {
		w[i] = float64(o.arms.counts[a])
	}
	out := make([]int, n)
	for i := range out {
		x := 1
		if len(arms) > 0 {
			x = arms[r.Categorical(w)] + 1
		}
		out[i] = min(x, o.pl.Size())
	}
	return out
}

// repairLayers reports the per-layer metrics of a traced repair pass and
// the attribution of each phase's measured time to the key, Apply and
// interpreter layers. Each replayed per-call cost is multiplied by the
// job's own counts; what the products do not cover is reported as the
// unexplained share, never hidden. outs are the first round's jobs;
// phase times are averaged over all rounds of the traced pass.
func repairLayers(rep *report, outs []*repairOut, spans *spanLog, rounds int) {
	n := float64(len(outs))
	var cands, safe, iters, probes, hits, lookups float64
	var applyAt [3][]float64
	var applyKB, key, miss, hit []float64
	var runTotal time.Duration
	var runCalls int
	var poolModel, searchModel probeCost
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		st := o.pl.Stats()
		cands += float64(st.Evaluated)
		safe += float64(st.Safe)
		iters += float64(o.res.Iterations)
		probes += float64(o.res.Probes)
		hits += float64(o.res.CacheHits)
		lookups += float64(o.res.CacheHits + o.res.FitnessEvals)

		c := replay(o)
		for i := range applyAt {
			applyAt[i] = append(applyAt[i], us(c.applyAt[i]))
		}
		applyKB = append(applyKB, c.applyKB64)
		key = append(key, us(c.key))
		miss = append(miss, us(c.evalMiss))
		hit = append(hit, us(c.evalHit))
		runTotal += c.runTotal
		runCalls += c.runCalls

		ev := time.Duration(st.Evaluated)
		poolModel.add(probeCost{apply: ev * c.candidate.apply, key: ev * c.candidate.key, interp: ev * c.candidate.interp})
		pr := time.Duration(o.res.Probes)
		searchModel.add(probeCost{
			apply:  pr * c.composite.apply,
			key:    pr * c.composite.key,
			interp: time.Duration(o.res.FitnessEvals) * c.composite.interp,
		})
	}

	perJob := func(name string) time.Duration { return spans.total(name) / time.Duration(rounds*len(outs)) }
	perRound := func(name string) time.Duration { return spans.total(name) / time.Duration(rounds) }
	rep.set("scenario.generate_ms", ms(perJob("scenario.generate")), "ms")
	rep.set("pool.build_ms", ms(perJob("pool.build")), "ms")
	rep.set("pool.candidates_per_job", cands/n, "count")
	rep.set("pool.safe_ratio", ratio(safe, cands), "ratio")
	rep.set("core.search_ms", ms(perJob("core.repair")), "ms")
	rep.set("core.iterations_per_job", iters/n, "count")
	rep.set("core.probes_per_job", probes/n, "count")
	rep.set("core.cache_hit_ratio", ratio(hits, lookups), "ratio")
	for i, x := range applySizes {
		rep.set("mutation.apply_us.x"+strconv.Itoa(x), mean(applyAt[i]), "us")
	}
	rep.set("mutation.apply_kb.x64", mean(applyKB), "KB")
	rep.set("testsuite.key_us", mean(key), "us")
	rep.set("testsuite.eval_miss_us", mean(miss), "us")
	rep.set("testsuite.eval_hit_us", mean(hit), "us")
	rep.set("lang.run_us_per_test", ratio(us(runTotal), float64(runCalls)), "us")

	attribute(rep, "pool", poolModel, perRound("pool.build"))
	attribute(rep, "search", searchModel, perRound("core.repair"))
}

// attribute reports each layer's share of a phase's measured time.
func attribute(rep *report, phase string, model probeCost, measured time.Duration) {
	t := float64(measured)
	k, a, i := ratio(float64(model.key), t), ratio(float64(model.apply), t), ratio(float64(model.interp), t)
	rep.set("attrib.key_share."+phase, k, "ratio")
	rep.set("attrib.apply_share."+phase, a, "ratio")
	rep.set("attrib.interp_share."+phase, i, "ratio")
	rep.set("attrib.unexplained_share."+phase, 1-k-a-i, "ratio")
	rep.notef("%s phase: %.0f ms measured; key %.1f%%, apply %.1f%%, interpreter %.1f%%, unexplained %.1f%%",
		phase, ms(measured), 100*k, 100*a, 100*i, 100*(1-k-a-i))
}
