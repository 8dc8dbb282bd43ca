// Command lemurbench is Lemur's end-to-end and per-layer benchmark. One
// process runs one named workload from a seed: it builds the workload's
// state (set-up), then drives seeded operations from one closed-loop client
// for a fixed wall-clock budget, checks every operation's output, and
// prints the metrics as the last line of standard output, one JSON object.
//
//	go build -o lemurbench . && ./lemurbench --workload deploy --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics with the program's
// observability layer (internal/obs) disabled. With --trace 1 untraced and
// traced stretches alternate, and the run reports the per-layer metrics
// from the traced ones plus bench.trace_overhead_frac.
//
// The first detOps operations of a run are the same for every run of one
// seed; the model metrics (model_gbps, model_slo_frac, the sim_* model
// figures and the model digest) are computed over exactly those, so they
// are identical across runs of one seed. Timing metrics cover every
// operation the budget allowed.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"lemur/internal/obs"
	"lemur/internal/pisa"
)

// processStart approximates process start: package variables initialize
// before main runs, after only the Go runtime's own start-up.
var processStart = time.Now()

// setupReps is how many times a run builds its workload state; setup_s is
// the median. The first build is timed from process start.
const setupReps = 5

// traceStretches is how many alternating untraced and traced stretches a
// traced run is cut into.
const traceStretches = 6

// Warm-up ops draw from warmSeed and index from warmIndex on, so set-up
// does the same work in every run and never repeats a timed op's inputs.
const (
	warmSeed  = 0
	warmIndex = 1 << 30
)

// opResult is one operation's outcome as the benchmark checked it.
type opResult struct {
	// modelBps is the op's aggregate model rate (Measure, LP prediction or
	// simulated goodput); chains/chainsMet count requested chains and those
	// whose model rate meets t_min.
	modelBps  float64
	chains    int
	chainsMet int
	// model is the canonical text of every deterministic model output the
	// op produced; it feeds the digest and the repeat check.
	model string
	// Simulation figures (sim workload only).
	simInjected, simDropped int
	simP99Sec               float64
	simHostSec              float64
}

// opError is an operation that errored or was refused by the program.
type opError struct{ reason string }

func (e *opError) Error() string { return e.reason }

// checkError is an operation whose output failed the benchmark's check.
type checkError struct{ reason string }

func (e *checkError) Error() string { return "output check: " + e.reason }

// workload is one benchmark scenario. gen builds op i's inputs before the
// op's clock starts; run executes them through the program.
type workload interface {
	setup() error
	detOps() int
	// sliceOps is how many consecutive ops form one slice of the timed
	// phase: whole blocks, so every slice carries the same op mix.
	sliceOps() int
	gen(i int) any
	run(in any, tr *tracer) (opResult, error)
	// layerMetrics adds the workload's own per-layer figures (traced runs).
	layerMetrics(m map[string]float64)
	// notes are extra report lines (known-defect tallies).
	notes() []string
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "deploy":
		return newDeploy(seed), nil
	case "sim":
		return newSim(seed), nil
	case "reconcile":
		return newReconcile(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want deploy, sim or reconcile)", name)
}

// phase accumulates one stretch of timed operations.
type phase struct {
	durs      []float64 // per-op wall ms
	ends      []float64 // per-op end, seconds since the phase started
	ok        []bool
	attempted int
	failed    int
	allocs    uint64
	wallSec   float64
	hostSim   float64
	simPkts   int
}

// detStats aggregates the deterministic operations' model outputs.
type detStats struct {
	ops, failed       int
	modelBps          float64
	chains, chainsMet int
	injected, dropped int
	p99Sum            float64
	simOps            int
	digest            hash.Hash
	reasons           map[string]int // every failed op's reason, deterministic or not
	incorrect         int
	firstIncorrect    string
	// peakRSS is the peak resident set once the deterministic ops are
	// done: a fixed amount of work, so a faster program, which runs more
	// ops in the budget and grows its caches further, does not read as
	// using more memory.
	peakRSS float64
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: deploy, sim or reconcile")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "wall-clock budget of the timed phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if err := run(os.Stdout, *workloadName, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "lemurbench:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, name string, seed int64, seconds float64, traced bool) error {
	obs.Disable()
	var w workload
	setups := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		start := processStart
		if rep > 0 {
			w = nil
			runtime.GC() // each later set-up starts from a collected heap
			start = time.Now()
		}
		pisa.SharedCache().Reset()
		var err error
		if w, err = newWorkload(name, seed); err != nil {
			return err
		}
		if err := w.setup(); err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()

	det := &detStats{digest: sha256.New(), reasons: map[string]int{}}
	tr := &tracer{}
	var untraced, traceP phase
	next := 0
	if !traced {
		untraced = runPhase(w, &next, seconds, det, tr)
	} else {
		// Untraced and traced stretches alternate, so drift over the run
		// (caches filling, a busier host) weighs on both alike.
		tr.enable()
		obs.Reset()
		for k := 0; k < traceStretches; k++ {
			tr.on = k%2 == 1
			if tr.on {
				obs.Enable()
				traceP.merge(runPhase(w, &next, seconds/traceStretches, det, tr))
			} else {
				obs.Disable()
				untraced.merge(runPhase(w, &next, seconds/traceStretches, det, tr))
			}
		}
		obs.Disable()
	}

	res := summarize(name, seed, setups, untraced, det, w.sliceOps())
	metricsOut := map[string]metricValue{}
	if !traced {
		for _, m := range endToEnd {
			metricsOut[m.name] = metricValue{Value: res.values[m.name], Unit: m.unit}
		}
	} else {
		layer := tr.metrics()
		harvestObs(layer, tr)
		w.layerMetrics(layer)
		traced50, _ := traceP.slices(w.sliceOps())
		untraced50, _ := untraced.slices(w.sliceOps())
		layer["bench.trace_overhead_frac"] = median(traced50)/median(untraced50) - 1
		for _, k := range []string{"sim_pkts_per_s", "sim_drop_frac", "sim_p99_ms"} {
			layer[k] = res.values[k]
		}
		for _, m := range perLayer {
			v := layer[m.name]
			metricsOut[m.name] = metricValue{Value: v, Unit: m.unit}
			res.lines = append(res.lines, fmt.Sprintf("layer %-34s %14.6g %s", m.name, v, m.unit))
		}
	}
	res.lines = append(res.lines, w.notes()...)
	for _, line := range res.lines {
		fmt.Fprintln(out, line)
	}
	result := map[string]any{
		"correct":   det.incorrect == 0,
		"attempted": untraced.attempted + traceP.attempted,
		"failed":    untraced.failed + traceP.failed,
		"metrics":   metricsOut,
	}
	enc, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(enc))
	return nil
}

// merge appends q's ops to p as if q ran right after p.
func (p *phase) merge(q phase) {
	p.durs = append(p.durs, q.durs...)
	for _, e := range q.ends {
		p.ends = append(p.ends, p.wallSec+e)
	}
	p.ok = append(p.ok, q.ok...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.allocs += q.allocs
	p.wallSec += q.wallSec
	p.hostSim += q.hostSim
	p.simPkts += q.simPkts
}

// runPhase executes operations from *next on until the budget is spent and
// every deterministic op has run.
func runPhase(w workload, next *int, seconds float64, det *detStats, tr *tracer) phase {
	var p phase
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for ; *next < w.detOps() || time.Now().Before(deadline); *next++ {
		i := *next
		in := w.gen(i)
		metrics.Read(sample)
		a0 := sample[0].Value.Uint64()
		t0 := time.Now()
		r, err := w.run(in, tr)
		d := time.Since(t0)
		metrics.Read(sample)
		p.allocs += sample[0].Value.Uint64() - a0
		p.attempted++
		if tr.on {
			tr.ops++
		}
		p.durs = append(p.durs, float64(d.Nanoseconds())/1e6)
		p.ends = append(p.ends, time.Since(start).Seconds())
		p.ok = append(p.ok, err == nil)
		p.hostSim += r.simHostSec
		p.simPkts += r.simInjected
		if err != nil {
			p.failed++
			var ce *checkError
			if errors.As(err, &ce) {
				if det.incorrect == 0 {
					det.firstIncorrect = ce.Error()
				}
				det.incorrect++
			}
			det.reasons[trimReason(err.Error())]++
		}
		if i < w.detOps() {
			det.add(r, err)
			if i == w.detOps()-1 {
				det.peakRSS = peakRSSMB()
			}
		}
	}
	p.wallSec = time.Since(start).Seconds()
	return p
}

func (d *detStats) add(r opResult, err error) {
	d.ops++
	d.chains += r.chains
	if err != nil {
		d.failed++
		fmt.Fprintf(d.digest, "fail %s\n", trimReason(err.Error()))
		return
	}
	d.modelBps += r.modelBps
	d.chainsMet += r.chainsMet
	d.injected += r.simInjected
	d.dropped += r.simDropped
	if r.simInjected > 0 {
		d.simOps++
		d.p99Sum += r.simP99Sec
	}
	io.WriteString(d.digest, r.model)
	io.WriteString(d.digest, "\n")
}

// trimReason caps a failure reason's length for the report's tally.
func trimReason(s string) string {
	if len(s) > 160 {
		s = s[:160]
	}
	return s
}

type metricDef struct {
	name, unit, better string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"ok_frac", "share", "higher"},
	{"model_gbps", "Gbps", "higher"},
	{"model_slo_frac", "share", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"allocs_per_op", "count", "lower"},
}

type summary struct {
	values map[string]float64
	lines  []string
}

// slices cuts the phase into consecutive slices of n ops (a trailing
// partial slice is dropped) and returns each slice's median op time and
// successful-op throughput. With fewer than three whole slices the whole
// phase is one slice. Medians over slices keep a burst of contention from
// other processes, shorter than half the run, out of the figures.
func (p *phase) slices(n int) (p50s, rates []float64) {
	if n <= 0 || len(p.durs)/n < 3 {
		n = len(p.durs)
	}
	prevEnd := 0.0
	for lo := 0; lo+n <= len(p.durs); lo += n {
		hi := lo + n
		okOps := 0
		for _, ok := range p.ok[lo:hi] {
			if ok {
				okOps++
			}
		}
		p50s = append(p50s, median(p.durs[lo:hi]))
		rates = append(rates, float64(okOps)/(p.ends[hi-1]-prevEnd))
		prevEnd = p.ends[hi-1]
	}
	return p50s, rates
}

func summarize(name string, seed int64, setups []float64, p phase, det *detStats, sliceOps int) summary {
	v := map[string]float64{}
	p50s, rates := p.slices(sliceOps)
	v["op_p50_ms"] = median(p50s)
	v["op_p90_ms"] = quantile(p.durs, 0.90)
	v["ops_per_s"] = median(rates)
	v["fail_frac"] = float64(det.failed) / float64(det.ops)
	v["ok_frac"] = 1 - v["fail_frac"]
	v["model_gbps"] = det.modelBps / float64(det.ops) / 1e9
	if det.chains > 0 {
		v["model_slo_frac"] = float64(det.chainsMet) / float64(det.chains)
	}
	v["setup_s"] = median(setups)
	v["peak_rss_mb"] = det.peakRSS
	v["allocs_per_op"] = float64(p.allocs) / float64(p.attempted)
	if p.hostSim > 0 {
		v["sim_pkts_per_s"] = float64(p.simPkts) / p.hostSim
	}
	if det.injected > 0 {
		v["sim_drop_frac"] = float64(det.dropped) / float64(det.injected)
	}
	if det.simOps > 0 {
		v["sim_p99_ms"] = det.p99Sum / float64(det.simOps) * 1e3
	}

	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	add("workload %s seed %d: %d ops timed (%d failed) in %.2fs, %d deterministic ops", name, seed, p.attempted, p.failed, p.wallSec, det.ops)
	rev := os.Getenv("LEMURBENCH_REV")
	if rev == "" {
		rev = "unknown"
	}
	add("env go=%s GOMAXPROCS=%d num_cpu=%d git_rev=%s", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), rev)
	add("setup_s samples %s", joinFloats(setups))
	add("op_p50_ms by slice %s", joinFloats(p50s))
	add("model_digest %s", hex.EncodeToString(det.digest.Sum(nil)))
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		add("metric %-16s %14.6g", k, v[k])
	}
	reasons := make([]string, 0, len(det.reasons))
	for r := range det.reasons {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		add("failure %5d× %s", det.reasons[r], r)
	}
	if det.incorrect > 0 {
		add("INCORRECT %d ops; first: %s", det.incorrect, det.firstIncorrect)
	}
	return summary{values: v, lines: lines}
}

func joinFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(s, " ")
}

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
