package main

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"time"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/pisa"
	"lemur/internal/placer"
	"lemur/internal/profile"
	lruntime "lemur/internal/runtime"
)

// deploy is the one-shot operator request: spec text through parse, chain
// build, Lemur placement, meta-compilation, testbed stand-up, a small
// functional walk and the steady-state Measure, on the Figure 3b rack (the
// paper's ToR and server plus a SmartNIC).
type deploy struct {
	seed  int64
	topo  *hw.Topology
	db    *profile.DB
	bases []float64 // base rate per canonical chain, index 1..5
	cases []deployCase
	// seen maps a popular request's spec text to the model text and the
	// measured rates of its first answer. Repeats must reproduce the model
	// text; measured-rate mismatches are tallied as a known defect.
	seen            map[string][2]string
	repeats, nondet int
	// Optimal probe outcome (traced runs).
	probe   string
	rejects map[string]int
}

// deployCase is one chain set at one δ the rack can place.
type deployCase struct {
	set   []int
	delta float64
}

type deployReq struct {
	spec    string
	tmins   []float64
	popular bool
}

const (
	deployWalkFrames = 4 // frames per chain in the Verify smoke walk
	deployPopular    = 2 // popular variants per case (skewed draw)
	deployDetBlocks  = 2 // deterministic ops = blocks × cases
	streamDeploy     = 1
)

func newDeploy(seed int64) *deploy { return &deploy{seed: seed, seen: map[string][2]string{}} }

func (w *deploy) setup() error {
	w.topo = hw.NewPaperTestbed(hw.WithSmartNIC())
	w.db = profile.DefaultDB()
	bases, err := experiments.BaseRates([]int{1, 2, 3, 4, 5}, w.topo, w.db)
	if err != nil {
		return err
	}
	w.bases = append([]float64{0}, bases...)
	// Every chain set of one to four of the five canonical chains, at every
	// δ of the paper's sweep the rack can place: an infeasible request
	// answers after placement alone, a different and much shorter path.
	for mask := 1; mask < 32; mask++ {
		var set []int
		for idx := 1; idx <= 5; idx++ {
			if mask&(1<<(idx-1)) != 0 {
				set = append(set, idx)
			}
		}
		if len(set) > 4 {
			continue
		}
		for _, delta := range experiments.DefaultDeltas() {
			c := deployCase{set: set, delta: delta}
			in, err := w.input(w.request(c, 0))
			if err != nil {
				return err
			}
			res, err := placer.Place(placer.SchemeLemur, in)
			if err != nil {
				return err
			}
			if res.Feasible {
				w.cases = append(w.cases, c)
			}
		}
	}
	// Warm-up: every popular variant of every case once.
	for v := 0; v < deployPopular; v++ {
		for _, c := range w.cases {
			req := w.request(c, v)
			req.popular = true
			if _, err := w.run(req, &tracer{}); err != nil {
				return fmt.Errorf("warm-up op: %w", err)
			}
		}
	}
	return nil
}

func (w *deploy) sliceOps() int { return len(w.cases) }

func (w *deploy) detOps() int { return deployDetBlocks * len(w.cases) }

// request renders case c as variant v.
func (w *deploy) request(c deployCase, v int) deployReq {
	req := deployReq{}
	var parts []string
	for _, idx := range c.set {
		tmin := c.delta * w.bases[idx]
		src, err := variantSpec(idx, tmin, hw.Gbps(100), v)
		if err != nil {
			panic(err) // canonical indexes 1..5 only
		}
		parts = append(parts, src)
		req.tmins = append(req.tmins, tmin)
	}
	req.spec = strings.Join(parts, "\n")
	return req
}

// gen draws op i: blocks of len(cases) ops visit every case once in a
// seeded order, and a seeded half of each block's ops repeat one of the
// case's popular variants (skewed toward the first; set-up warmed them
// all, so they hit the PISA compile cache) while the rest are fresh
// variants that miss it.
func (w *deploy) gen(i int) any {
	n := len(w.cases)
	c := w.cases[blockPerm(w.seed, streamDeploy, i/n, n)[i%n]]
	if blockPerm(w.seed, streamDeploy+1, i/n, n)[i%n] < n/2 {
		u := opRand(w.seed, streamDeploy, i).Float64()
		req := w.request(c, int(u*u*deployPopular))
		req.popular = true
		return req
	}
	return w.request(c, 1000+i)
}

// input parses and builds a request outside any timing (set-up only).
func (w *deploy) input(req deployReq) (*placer.Input, error) {
	chains, err := nfspec.Parse(req.spec)
	if err != nil {
		return nil, err
	}
	in := &placer.Input{Topo: w.topo, DB: w.db, Restrict: experiments.EvalRestrict}
	for _, c := range chains {
		g, err := nfgraph.Build(c)
		if err != nil {
			return nil, err
		}
		in.Chains = append(in.Chains, g)
	}
	return in, nil
}

func (w *deploy) run(x any, tr *tracer) (opResult, error) {
	req := x.(deployReq)
	r := opResult{chains: len(req.tmins)}

	s := tr.begin()
	chains, err := nfspec.Parse(req.spec)
	tr.end("nfspec.parse", "nfspec", s)
	if err != nil {
		return r, &opError{"parse: " + err.Error()}
	}
	s = tr.begin()
	in := &placer.Input{Topo: w.topo, DB: w.db, Restrict: experiments.EvalRestrict}
	for _, c := range chains {
		g, err := nfgraph.Build(c)
		if err != nil {
			return r, &opError{"build: " + err.Error()}
		}
		in.Chains = append(in.Chains, g)
	}
	tr.end("nfgraph.build", "nfgraph", s)

	s = tr.begin()
	res, err := placer.Place(placer.SchemeLemur, in)
	tr.end("placer.place", "placer", s)
	if err != nil {
		return r, &opError{"place: " + err.Error()}
	}
	if !res.Feasible {
		return r, &opError{"infeasible: " + res.Reason}
	}
	s = tr.begin()
	d, err := metacompiler.Compile(in, res)
	tr.end("metacompiler.compile", "metacompiler", s)
	if err != nil {
		return r, &opError{"compile: " + err.Error()}
	}

	s = tr.begin()
	tb := lruntime.New(d, 1)
	tr.end("runtime.deploy", "runtime", s)
	s = tr.begin()
	ws, err := tb.Verify(deployWalkFrames)
	tr.end("runtime.verify", "runtime", s)
	if err != nil {
		return r, &checkError{"verify: " + err.Error()}
	}
	if ws.Egressed+ws.Dropped != ws.Injected {
		return r, &checkError{fmt.Sprintf("verify: %d injected, %d egressed, %d dropped", ws.Injected, ws.Egressed, ws.Dropped)}
	}
	s = tr.begin()
	m, err := experiments.MeasureAchieved(tb, in, res)
	tr.end("runtime.measure", "runtime", s)
	if err != nil {
		return r, &opError{"measure: " + err.Error()}
	}

	// The model outputs are the placement, its LP rates and the walk.
	// Measure's rates are not: its link enforcement visits oversubscribed
	// devices in map order, so a request that oversubscribes two devices
	// can measure different rates on a repeat. They are tallied instead.
	var b strings.Builder
	placementText(&b, in, res)
	fmt.Fprintf(&b, " walk=%d/%d/%d", ws.Injected, ws.Egressed, ws.Dropped)
	r.model = b.String()
	r.modelBps = res.PredictedAggregate
	for ci, rate := range res.ChainRates {
		if meets(rate, req.tmins[ci]) {
			r.chainsMet++
		}
	}
	var mb strings.Builder
	writeFloats(&mb, m.Rates)
	tr.add("runtime.measure_gbps", m.Aggregate/1e9)
	if req.popular {
		if prev, ok := w.seen[req.spec]; !ok {
			w.seen[req.spec] = [2]string{r.model, mb.String()}
		} else {
			if prev[0] != r.model {
				return r, &checkError{"a repeated request produced a different placement:\nfirst: " + prev[0] + "\nnow:   " + r.model}
			}
			w.repeats++
			if prev[1] != mb.String() {
				w.nondet++
			}
		}
	}
	return r, nil
}

func (w *deploy) layerMetrics(m map[string]float64) {
	if w.repeats > 0 {
		m["runtime.measure_nondet_frac"] = float64(w.nondet) / float64(w.repeats)
	}
	w.optimalProbe(m)
}

// optimalSets are the chain sets of the Optimal probe: the SmartNIC chain
// 5 with each lighter canonical chain, every δ of the paper's sweep. Sets
// without chain 5 take seconds per solve on this rack.
var optimalSets = [][]int{{1, 5}, {2, 5}, {3, 5}, {2, 3, 5}}

// optimalProbe runs the Optimal scheme's branch-and-bound search (the only
// caller of placer/bruteforce.go) on the rack and checks every feasible
// answer with metacompiler.Compile, recording rejections by reason.
func (w *deploy) optimalProbe(m map[string]float64) {
	var solves, feasible, truncated, rejected int
	var ns, evaluated, pruned, collapsed, bindRejected, visitFrac float64
	w.rejects = map[string]int{}
	for _, set := range optimalSets {
		for _, delta := range experiments.DefaultDeltas() {
			in, err := w.input(w.request(deployCase{set: set, delta: delta}, 0))
			if err != nil {
				w.rejects["input: "+err.Error()]++
				continue
			}
			t := time.Now()
			res, err := placer.Place(placer.SchemeOptimal, in)
			ns += float64(time.Since(t).Nanoseconds())
			solves++
			if err != nil {
				w.rejects["place: "+err.Error()]++
				continue
			}
			st := res.Search
			evaluated += float64(st.Evaluated)
			pruned += float64(st.PrunedSubtrees + st.DemandPruned)
			collapsed += float64(st.CollapsedSubtrees)
			bindRejected += float64(st.BindRejected)
			if st.Combinations > 0 {
				visitFrac += float64(st.Visited()) / st.Combinations
			}
			if res.Truncated {
				truncated++
			}
			if !res.Feasible {
				continue
			}
			feasible++
			if _, err := metacompiler.Compile(in, res); err != nil {
				rejected++
				w.rejects[variantFree.ReplaceAllString(err.Error(), "")]++
			}
		}
	}
	n := float64(solves)
	m["placer.optimal_place_us"] = ns / n / 1e3
	m["placer.bb_evaluated"] = evaluated / n
	m["placer.bb_pruned"] = pruned / n
	m["placer.bb_collapsed"] = collapsed / n
	m["placer.bb_bind_rejected"] = bindRejected / n
	m["placer.bb_visit_frac"] = visitFrac / n
	m["placer.truncated_frac"] = float64(truncated) / n
	if feasible > 0 {
		m["metacompiler.reject_frac"] = float64(rejected) / float64(feasible)
	}
	w.probe = fmt.Sprintf("optimal probe: %d solves, %d feasible, %d rejected by metacompiler.Compile", solves, feasible, rejected)
}

// variantFree strips the _v<n> variant suffix so reasons group by NF.
var variantFree = regexp.MustCompile(`_v[0-9]+`)

func (w *deploy) notes() []string {
	st := pisa.SharedCache().Stats()
	out := []string{fmt.Sprintf("pisa compile cache: %d hits, %d misses, %d evictions, %d entries", st.Hits, st.Misses, st.Evictions, st.Entries),
		fmt.Sprintf("known defect: runtime.Measure returned different rates for %d of %d repeated identical requests (link enforcement visits devices in map order)", w.nondet, w.repeats)}
	if w.probe != "" {
		out = append(out, w.probe)
		reasons := make([]string, 0, len(w.rejects))
		for r := range w.rejects {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			out = append(out, fmt.Sprintf("known defect: Optimal placement rejected %d× — %s", w.rejects[r], r))
		}
	}
	return out
}
