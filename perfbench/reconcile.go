package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"lemur/internal/daemon"
	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/profile"
)

// reconcile drives lemurd's reconcile loop on a FakeClock. An episode
// starts a fresh daemon on a four-server rack with a SmartNIC and four
// cores of admission headroom per server; its first op is the initial
// apply, then come seeded desired-state edits (admit, retire, or redefine
// t_min of canonical-chain variants), and a node failure ends it.
type reconcile struct {
	seed  int64
	bases []float64
	d     *daemon.Daemon
	clk   *daemon.FakeClock
	// plan caches the current episode's generated ops.
	planEp int
	plan   []reconReq
}

type reconReq struct {
	kind  string // "first", "edit" or "fail"
	doc   []byte // desired-state document (first and edit ops)
	fail  string // node to fail (fail ops)
	tmins map[string]float64
}

// reconChain is one live chain of the generated desired state.
type reconChain struct {
	idx, variant int
	delta        float64
}

const (
	streamReconcile    = 3
	reconEdits         = 22 // edits per episode
	reconOpsPerEp      = reconEdits + 2
	reconDetEpisodes   = 96
	reconWarmEps       = 4
	reconMaxTicks      = 16
	reconSliceEpisodes = 10
	reconInterval      = time.Second
	reconMinLive       = 3
	reconMaxLive       = 6
	reconServers       = 4
	reconHeadroom      = 8
)

// reconCycle is the repeating order of edit kinds in an episode.
var reconCycle = []string{"admit", "redefine", "admit", "retire", "redefine", "retire"}

// reconChains are the canonical chains edits draw variants of, and
// reconDeltas the t_min levels (× base rate) they choose from.
var (
	reconChains = []int{2, 3, 4, 5}
	reconDeltas = []float64{0.1, 0.2, 0.3}
)

func newReconcile(seed int64) *reconcile { return &reconcile{seed: seed, planEp: -1} }

func (w *reconcile) setup() error {
	bases, err := experiments.BaseRates([]int{1, 2, 3, 4, 5}, hw.NewPaperTestbed(), profile.DefaultDB())
	if err != nil {
		return err
	}
	w.bases = append([]float64{0}, bases...)
	// Warm-up episodes come from a fixed seed, so set-up does the same
	// work in every run.
	seed := w.seed
	w.seed = warmSeed
	defer func() { w.seed, w.planEp = seed, -1 }()
	warm := (warmIndex/reconOpsPerEp + 1) * reconOpsPerEp // an episode start
	for k := 0; k < reconWarmEps*reconOpsPerEp; k++ {
		if _, err := w.run(w.gen(warm+k), &tracer{}); err != nil {
			return fmt.Errorf("warm-up op %d: %w", k, err)
		}
	}
	return nil
}

func (w *reconcile) sliceOps() int { return reconSliceEpisodes * reconOpsPerEp }

func (w *reconcile) detOps() int { return reconDetEpisodes * reconOpsPerEp }

func (w *reconcile) gen(i int) any {
	if ep := i / reconOpsPerEp; ep != w.planEp {
		w.planEp = ep
		w.plan = w.episode(ep)
	}
	return w.plan[i%reconOpsPerEp]
}

// episode generates one episode's ops. Edits follow a fixed cycle of
// kinds (reconCycle), so three to five chains stay live and every episode
// does the same mix of work; the seed draws which canonical chains and
// t_min levels fresh variants take (each a seeded permutation, cycled),
// which live chain an edit retires or redefines, and the failed node.
func (w *reconcile) episode(ep int) []reconReq {
	rng := opRand(w.seed, streamReconcile, ep)
	chains, deltas := rng.Perm(len(reconChains)), rng.Perm(len(reconDeltas))
	next := 0
	fresh := func() reconChain {
		c := reconChain{idx: reconChains[chains[next%len(chains)]], variant: next + 1,
			delta: reconDeltas[deltas[next%len(deltas)]]}
		next++
		return c
	}
	live := []reconChain{fresh(), fresh(), fresh()}
	out := []reconReq{w.doc("first", live)}
	for e := 0; e < reconEdits; e++ {
		j := rng.Intn(len(live))
		switch reconCycle[e%len(reconCycle)] {
		case "admit":
			live = append(live, fresh())
		case "retire":
			live = append(live[:j:j], live[j+1:]...)
		case "redefine":
			c := live[j]
			c.delta = reconDeltas[(indexOf(reconDeltas, c.delta)+1+rng.Intn(len(reconDeltas)-1))%len(reconDeltas)]
			live = append(append(live[:j:j], c), live[j+1:]...)
		}
		out = append(out, w.doc("edit", live))
	}
	last := w.doc("fail", live)
	last.fail = fmt.Sprintf("nf-server-%d", 1+rng.Intn(reconServers-1))
	return append(out, last)
}

func indexOf(xs []float64, x float64) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func (w *reconcile) doc(kind string, live []reconChain) reconReq {
	req := reconReq{kind: kind, tmins: map[string]float64{}}
	var parts []string
	for _, c := range live {
		tmin := c.delta * w.bases[c.idx]
		src, err := variantSpec(c.idx, tmin, hw.Gbps(100), c.variant)
		if err != nil {
			panic(err) // canonical indexes 1..5 only
		}
		parts = append(parts, src)
		req.tmins[fmt.Sprintf("chain%d_v%d", c.idx, c.variant)] = tmin
	}
	raw, err := json.Marshal(&daemon.Spec{
		Chains:    strings.Join(parts, "\n"),
		Hardware:  daemon.HardwareSpec{Servers: reconServers, SmartNIC: true},
		Placement: daemon.PlacementSpec{HeadroomCores: reconHeadroom},
	})
	if err != nil {
		panic(err) // plain struct; cannot fail
	}
	req.doc = raw
	return req
}

func (w *reconcile) run(x any, tr *tracer) (opResult, error) {
	req := x.(reconReq)
	r := opResult{chains: len(req.tmins)}
	var err error
	switch req.kind {
	case "first":
		w.clk = daemon.NewFakeClock(time.Unix(0, 0))
		s := tr.begin()
		w.d, err = daemon.New(daemon.Config{Interval: reconInterval, Clock: w.clk, AllowRepack: true})
		tr.end("daemon.new", "daemon", s)
		if err != nil {
			return r, &opError{"daemon: " + err.Error()}
		}
		fallthrough
	case "edit":
		s := tr.begin()
		_, err = w.d.SetSpec(req.doc, "bench")
		tr.end("daemon.setspec", "daemon", s)
		if err != nil {
			return r, &opError{"spec rejected: " + err.Error()}
		}
	case "fail":
		if err := w.d.InjectFailures([]string{req.fail}); err != nil {
			return r, &opError{"inject: " + err.Error()}
		}
	}
	site := "daemon.tick"
	if req.kind == "fail" {
		site = "daemon.crash_tick"
	}
	before := w.d.CountersSnapshot()
	var trail strings.Builder
	var last *daemon.ReconcileResult
	for t := 0; t < reconMaxTicks; t++ {
		next := w.clk.Now().Add(reconInterval)
		if last != nil && last.BackoffUntil.After(next) {
			next = last.BackoffUntil.Add(time.Millisecond)
		}
		w.clk.Advance(next.Sub(w.clk.Now()))
		s := tr.begin()
		last = w.d.Tick()
		tr.end(site, "daemon", s)
		enc, _ := json.Marshal(last) // plain struct; cannot fail
		trail.Write(enc)
		if last.Converged {
			break
		}
	}
	after := w.d.CountersSnapshot()
	tr.add("daemon.applies", float64(after.Applies-before.Applies))
	tr.add("daemon.backoff_retries", float64(after.BackoffRetries-before.BackoffRetries))
	if !last.Converged {
		return r, &opError{fmt.Sprintf("%s op did not converge: %s", req.kind, last.Err)}
	}
	st := w.d.StatusSnapshot()
	if len(st.Chains) != len(req.tmins) {
		return r, &checkError{fmt.Sprintf("converged with %d chains, desired %d", len(st.Chains), len(req.tmins))}
	}
	for _, c := range st.Chains {
		tmin, ok := req.tmins[c.Name]
		// Spec text renders t_min in whole bits per second.
		if !ok || math.Abs(c.TMinBps-tmin) > 1 {
			return r, &checkError{fmt.Sprintf("converged chain %s (t_min %g) is not in the desired state", c.Name, c.TMinBps)}
		}
		r.modelBps += c.RateBps
		if c.SLOMet {
			r.chainsMet++
		}
	}
	enc, _ := json.Marshal(st) // plain struct; cannot fail
	trail.Write(enc)
	r.model = trail.String()
	return r, nil
}

func (w *reconcile) layerMetrics(m map[string]float64) {}

func (w *reconcile) notes() []string { return nil }
