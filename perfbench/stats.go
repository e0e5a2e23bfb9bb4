package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/rng"
)

// jobRecord is one finished job of a timed pass.
type jobRecord struct {
	// digest is the job's deterministic fields in canonical text form:
	// identical across runs, seeds, traced and untraced passes.
	digest  string
	latency time.Duration
	// evals is test-suite executions: phase-1 candidates actually run
	// plus phase-2 fitness evaluations (probes for learner jobs).
	evals int64
	// ok is false when the job errored, never completed, or failed
	// output verification.
	ok bool
}

// procSample is a point-in-time reading of process-wide counters.
type procSample struct {
	at       time.Time
	cpu      time.Duration // user + sys
	alloc    uint64        // cumulative heap bytes allocated
	gcCycles uint32
	gcCPU    float64 // cumulative GC CPU seconds (runtime estimate)
	allCPU   float64 // cumulative CPU seconds available to the runtime
}

var cpuMetricNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: cpuMetricNames[0]}, {Name: cpuMetricNames[1]}}
	metrics.Read(s)
	return procSample{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcCPU:    s[0].Value.Float64(),
		allCPU:   s[1].Value.Float64(),
	}
}

// round is one timed execution of a workload's job list.
type round struct {
	records    []jobRecord
	start, end procSample
}

func (r *round) rate() float64 {
	return float64(len(r.records)) / r.end.at.Sub(r.start.at).Seconds()
}

// pass is a workload's job list executed round after round. Every round
// does identical work, so per-round figures can be compared and their
// median taken: a burst of noise from other processes on the machine
// spoils one round, not the run.
type pass struct {
	rounds []round
}

// add files a round's verified records and counts them in the run's
// attempted and failed totals.
func (p *pass) add(rep *report, recs []jobRecord, start, end procSample) {
	p.rounds = append(p.rounds, round{records: recs, start: start, end: end})
	rep.attempted += len(recs)
	for _, r := range recs {
		if !r.ok {
			rep.failed++
		}
	}
}

func (p *pass) records() []jobRecord {
	var out []jobRecord
	for _, r := range p.rounds {
		out = append(out, r.records...)
	}
	return out
}

// rate is the median round's jobs per second.
func (p *pass) rate() float64 {
	v := make([]float64, len(p.rounds))
	for i := range p.rounds {
		v[i] = p.rounds[i].rate()
	}
	return median(v)
}

func (p *pass) digest() string {
	recs := p.records()
	lines := make([]string, len(recs))
	for i, r := range recs {
		lines[i] = r.digest
	}
	return digestOf(lines)
}

// shuffled returns a copy of list in an order drawn from r.
func shuffled[T any](list []T, r *rng.RNG) []T {
	out := append([]T(nil), list...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// runRounds executes the job list once per round, each round in a fresh
// order drawn from seed, and verifies each round's outputs after its end
// sample so verification is never timed. It returns the pass and the
// first round's outputs.
func runRounds[J, O any](rep *report, cat []J, seed uint64, rounds int, run func(J, int) O, verify func([]O) []jobRecord) (*pass, []O) {
	p := &pass{}
	order := rng.New(seed)
	var first []O
	for r := 0; r < rounds; r++ {
		list := shuffled(cat, order)
		outs := make([]O, len(list))
		start := sampleProc()
		for i, j := range list {
			outs[i] = run(j, r*len(list)+i+1)
		}
		end := sampleProc()
		p.add(rep, verify(outs), start, end)
		if r == 0 {
			first = outs
		}
	}
	return p, first
}

// setupMedian times a workload's set-up setupReps times and returns the
// median.
func setupMedian(rep *report, setup func() error) time.Duration {
	times := make([]time.Duration, setupReps)
	for i := range times {
		t0 := time.Now()
		if err := setup(); err != nil {
			rep.fail("set-up: %v", err)
		}
		times[i] = time.Since(t0)
	}
	return medianDuration(times)
}

// roundSeconds is a round's nominal length: each workload's list takes
// about this long on a 2-CPU x86-64 machine, except repair-deep's, whose
// four jobs take about five seconds and cannot be shortened without
// cutting the search. setupReps is how often set-up is repeated for its
// median.
const (
	roundSeconds = 3
	setupReps    = 9
)

// roundsFor is the number of rounds in a run of the given length. A
// traced run makes two passes, untraced and traced, of half as many
// rounds each, so it costs about as much as an untraced run. The count
// depends only on the arguments, never on the clock, so every run with
// the same --seconds does identical work.
func roundsFor(seconds int, traced bool) int {
	n := max(1, int(math.Round(float64(seconds)/roundSeconds)))
	if traced {
		n = (n + 1) / 2
	}
	return n
}

// digestOf hashes job lines order-independently: the seed only orders
// the list, so every run of a workload must print the same digest.
func digestOf(lines []string) string {
	sorted := append([]string(nil), lines...)
	sort.Strings(sorted)
	h := sha256.New()
	for _, l := range sorted {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// endToEnd fills the end-to-end metrics shared by every workload.
// Throughput and CPU cost are medians over rounds; latency percentiles
// pool every job of every round.
func endToEnd(rep *report, p *pass, setup time.Duration) {
	recs := p.records()
	n := len(recs)
	lat := make([]float64, n)
	var evals int64
	ok := 0
	for i, r := range recs {
		lat[i] = ms(r.latency)
		evals += r.evals
		if r.ok {
			ok++
		}
	}
	cpu := make([]float64, len(p.rounds))
	rates := make([]string, len(p.rounds))
	for i, r := range p.rounds {
		cpu[i] = ms(r.end.cpu-r.start.cpu) / float64(len(r.records))
		rates[i] = fmt.Sprintf("%.3f", r.rate())
	}
	rep.set("jobs_per_s", p.rate(), "1/s")
	rep.notef("jobs/s per round: %s", strings.Join(rates, " "))
	rep.set("job_ms.p50", median(lat), "ms")
	tail, pct, err := tailPercentile(lat)
	if err != nil {
		rep.fail("%v", err)
	} else {
		rep.notef("job_ms.tail is p%.1f of n=%d jobs (10 beyond it)", pct, n)
	}
	rep.set("job_ms.tail", tail, "ms")
	rep.set("cpu_ms_per_job", median(cpu), "ms")
	rep.set("evals_per_job", float64(evals)/float64(n), "count")
	rep.set("ok_ratio", float64(ok)/float64(n), "ratio")
	rep.set("setup_s", setup.Seconds(), "s")
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.notef("digest %s over %d jobs", p.digest(), n)
}

// runtimeLayer fills the Go-runtime per-layer metrics from an untraced
// pass.
func runtimeLayer(rep *report, p *pass) {
	first, last := p.rounds[0].start, p.rounds[len(p.rounds)-1].end
	n := float64(len(p.records()))
	rep.set("runtime.alloc_mb_per_job", float64(last.alloc-first.alloc)/(1<<20)/n, "MB")
	rep.set("runtime.gc_cycles_per_job", float64(last.gcCycles-first.gcCycles)/n, "count")
	share := 0.0
	if d := last.allCPU - first.allCPU; d > 0 {
		share = (last.gcCPU - first.gcCPU) / d
	}
	rep.set("runtime.gc_cpu_share", share, "ratio")
}

// traceOverhead reports how much slower the traced pass ran than the
// untraced pass of the same list, as a share of the untraced rate.
func traceOverhead(rep *report, untraced, traced *pass) {
	u, t := untraced.rate(), traced.rate()
	rep.set("trace.overhead_share", 1-t/u, "ratio")
	rep.notef("tracing overhead: %.3f jobs/s untraced vs %.3f traced", u, t)
	if du, dt := untraced.digest(), traced.digest(); du != dt {
		rep.fail("traced digest %s differs from untraced %s", dt, du)
	}
}

// tailPercentile returns the highest-ranked latency with at least ten
// samples beyond it, and its percentile rank.
func tailPercentile(v []float64) (float64, float64, error) {
	n := len(v)
	if n < 11 {
		return 0, 0, fmt.Errorf("job list of %d too short for a tail with 10 jobs beyond it", n)
	}
	s := sortedCopy(v)
	return s[n-11], 100 * float64(n-10) / float64(n), nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDuration(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return time.Duration(median(v))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}
