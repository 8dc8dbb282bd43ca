package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"lemur/internal/chaos"
	"lemur/internal/churn"
	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nfgraph"
	"lemur/internal/obs"
	"lemur/internal/placer"
	"lemur/internal/profile"
	lruntime "lemur/internal/runtime"
	"lemur/internal/trafficgen"
)

// sim compiles a fresh deployment of a placement made in set-up and runs
// the discrete-time simulator on it. Each block of ops visits every op
// class once, in a seeded order; each class cycles through its chain sets.
type sim struct {
	seed    int64
	topo    *hw.Topology
	db      *profile.DB
	bases   []float64
	placed  map[string]*simPlacement
	classes []simClass
	// classMs and classOps accumulate host time per op class.
	classMs  map[string]float64
	classOps map[string]int
	err      error
	// Traced-phase tallies.
	walk             *walkStats
	simNs, simAllocs float64
	simPkts          int
	frames           [3]float64 // frames per platform (platforms order) in Simulate
	schedNs          float64
	schedOps         int
}

// simPlacement is one chain set placed in set-up.
type simPlacement struct {
	in      *placer.Input
	res     *placer.Result
	catalog map[string]*nfgraph.Graph // churn admit targets
	admit   string
	retire  string
}

// simClass is one kind of simulation op.
type simClass struct {
	name string
	sets []string // keys into placed
	load float64  // offered load over the placed rate
	// pkts sizes a Scale-1 run: its duration is set so about pkts packets
	// are injected. Zero runs at the public Deployment.Simulate defaults
	// (Scale 2000, 0.5 s simulated).
	pkts      int
	flowScale int
	crash     bool
	churn     bool
}

type simReq struct {
	p     *simPlacement
	cfg   lruntime.SimConfig
	load  float64
	tmins []float64
	class string
}

const (
	streamSim     = 2
	simDetBlocks  = 8
	simWarmBlocks = 1
	simFlowScale  = 200_000
	simMinSec     = 0.01
)

func newSim(seed int64) *sim {
	return &sim{seed: seed, placed: map[string]*simPlacement{},
		classMs: map[string]float64{}, classOps: map[string]int{}}
}

// simSets are the chain sets the sim workload places: server-only sets of
// the canonical chains 1-4, and SmartNIC-bearing sets with chain 5.
var (
	simServerSets = [][]int{{1}, {2}, {3, 4}, {1, 3}}
	simNICSets    = [][]int{{5}, {2, 5}}
)

func setKey(set []int) string { return fmt.Sprint(set) }

func (w *sim) setup() error {
	w.topo = hw.NewPaperTestbed(hw.WithServers(2), hw.WithSmartNIC())
	w.db = profile.DefaultDB()
	bases, err := experiments.BaseRates([]int{1, 2, 3, 4, 5}, w.topo, w.db)
	if err != nil {
		return err
	}
	w.bases = append([]float64{0}, bases...)
	var srv, nic, crash, churnSets []string
	for _, set := range simServerSets {
		srv = append(srv, w.place("", set, 1, 0))
		// Failover and churn ops run the sets at δ=0.5 with two cores per
		// server held back, so the survivor of a crash can host the
		// moved chains and an admission fits without a repack.
		crash = append(crash, w.place("crash", set, 0.5, 8))
		churnSets = append(churnSets, w.place("churn", set, 0.5, 2, 3))
	}
	for _, set := range simNICSets {
		nic = append(nic, w.place("", set, 1, 0))
	}
	if w.err != nil {
		return w.err
	}
	w.classes = []simClass{
		{name: "srv-under", sets: srv, load: 0.8, pkts: 16_000},
		{name: "srv-over", sets: srv, load: 1.3, pkts: 16_000},
		{name: "srv-flows", sets: srv, load: 1.0, pkts: 16_000, flowScale: simFlowScale},
		{name: "nic-under", sets: nic, load: 0.8, pkts: 1_000},
		{name: "nic-over", sets: nic, load: 1.3, pkts: 1_000},
		{name: "defaults", sets: append(append([]string(nil), srv...), nic...), load: 1.0},
		{name: "crash", sets: crash, load: 1.0, pkts: 16_000, crash: true},
		{name: "churn", sets: churnSets, load: 1.0, pkts: 16_000, churn: true},
	}
	// Warm-up ops come from a fixed seed, so set-up does the same work in
	// every run.
	seed := w.seed
	w.seed = warmSeed
	defer func() { w.seed = seed }()
	for k := 0; k < simWarmBlocks*len(w.classes); k++ {
		if _, err := w.run(w.gen(warmIndex+k), &tracer{}); err != nil {
			return fmt.Errorf("warm-up op %d: %w", k, err)
		}
	}
	return nil
}

// place builds set at t_min = δ × base rate and places it with headroom
// cores per server held back. Chains in admit stay out of the placement
// and go to the churn catalog. It returns the placement's key; the first
// failure is kept in w.err.
func (w *sim) place(prefix string, set []int, delta float64, headroom int, admit ...int) string {
	key := prefix + setKey(set)
	if w.err != nil {
		return key
	}
	all := append(append([]int(nil), set...), admit...)
	tmins := make([]float64, len(all))
	for i, idx := range all {
		tmins[i] = delta * w.bases[idx]
	}
	graphs, err := experiments.BuildChains(all, tmins, hw.Gbps(100), 0)
	if err != nil {
		w.err = err
		return key
	}
	p := &simPlacement{retire: graphs[0].Chain.Name}
	if len(admit) > 0 {
		p.catalog = map[string]*nfgraph.Graph{}
		for _, g := range graphs[len(set):] {
			// The admitted chain's name must differ from every base chain.
			g.Chain.Name += "_admit"
			p.catalog[g.Chain.Name] = g
			p.admit = g.Chain.Name
		}
	}
	p.in = &placer.Input{Chains: graphs[:len(set)], Topo: w.topo, DB: w.db,
		Restrict: experiments.EvalRestrict, HeadroomCores: headroom}
	if p.res, err = placer.Place(placer.SchemeLemur, p.in); err == nil && !p.res.Feasible {
		err = fmt.Errorf("sim set %s: infeasible: %s", key, p.res.Reason)
	}
	w.err = err
	w.placed[key] = p
	return key
}

// sliceOps is 0: sim ops take 40-120 ms by class, so a slice short enough
// to give several per run has too few ops for a stable median; the whole
// phase is one slice.
func (w *sim) sliceOps() int { return 0 }

func (w *sim) detOps() int { return simDetBlocks * len(w.classes) }

func (w *sim) gen(i int) any {
	n := len(w.classes)
	b := i / n
	c := w.classes[blockPerm(w.seed, streamSim, b, n)[i%n]]
	rng := opRand(w.seed, streamSim, i)
	// Each class cycles through its sets, in an order the seed rotates.
	rot := int(opRand(w.seed, streamSim+10, 0).Int31n(int32(len(c.sets))))
	p := w.placed[c.sets[(b+rot)%len(c.sets)]]
	req := simReq{p: p, class: c.name, load: c.load + 0.1*(rng.Float64()-0.5)}
	for _, g := range p.in.Chains {
		req.tmins = append(req.tmins, g.Chain.SLO.TMinBps)
	}
	cfg := lruntime.SimConfig{Seed: rng.Int63(), FlowScale: c.flowScale}
	if c.pkts > 0 {
		// Light ops (SmartNIC sets) would span under one scheduler quantum
		// at Scale 1; they keep simMinSec of simulated time and scale
		// rates and budgets down instead.
		pps := 0.0
		for _, r := range p.res.ChainRates {
			pps += r * req.load / p.in.FrameBitsOrDefault()
		}
		cfg.Scale = 1
		cfg.DurationSec = float64(c.pkts) / pps
		if cfg.DurationSec < simMinSec {
			cfg.Scale = simMinSec / cfg.DurationSec
			cfg.DurationSec = simMinSec
		}
	} else {
		cfg.DurationSec = 0.5
	}
	if c.crash {
		cfg.Faults = &chaos.Plan{
			Events:            []chaos.Event{{Kind: chaos.Crash, Target: crashTarget(p.res), AtSec: cfg.DurationSec / 3}},
			DetectionDelaySec: cfg.DurationSec / 20,
			ReconfigDelaySec:  cfg.DurationSec / 10,
		}
	}
	if c.churn {
		cfg.Churn = &churn.Plan{
			Events: []churn.Event{
				{Kind: churn.Admit, Chain: p.admit, AtSec: cfg.DurationSec / 4},
				{Kind: churn.Retire, Chain: p.retire, AtSec: cfg.DurationSec / 2},
			},
			DetectionDelaySec: cfg.DurationSec / 20,
			ReconfigDelaySec:  cfg.DurationSec / 10,
		}
		cfg.ChurnCatalog = p.catalog
	}
	req.cfg = cfg
	return req
}

// crashTarget picks the server a crash op kills a third of the way in: the
// busy server with the fewest allocated cores, so the survivor has room.
func crashTarget(res *placer.Result) string {
	cores := map[string]int{}
	for _, sg := range res.Subgroups {
		cores[sg.Server] += sg.Cores
	}
	best := ""
	for srv, n := range cores {
		if best == "" || n < cores[best] || (n == cores[best] && srv < best) {
			best = srv
		}
	}
	return best
}

func (w *sim) run(x any, tr *tracer) (opResult, error) {
	req := x.(simReq)
	r := opResult{chains: len(req.tmins)}
	s := tr.begin()
	d, err := metacompiler.Compile(req.p.in, req.p.res)
	tr.end("metacompiler.compile", "metacompiler", s)
	if err != nil {
		return r, &opError{"compile: " + err.Error()}
	}
	tb := lruntime.New(d, 1)
	offered := make([]float64, len(req.p.res.ChainRates))
	for i, rate := range req.p.res.ChainRates {
		offered[i] = rate * req.load
	}
	if tr.on && req.cfg.FlowScale > 0 {
		if err := w.timeSchedule(req); err != nil {
			return r, &opError{"schedule: " + err.Error()}
		}
	}
	var frames0 [3]uint64
	if tr.on {
		frames0 = platformFrames()
	}
	s = tr.begin()
	t0 := time.Now()
	res, err := tb.Simulate(offered, req.cfg)
	r.simHostSec = time.Since(t0).Seconds()
	tr.end("runtime.simulate", "runtime", s)
	w.classMs[req.class] += r.simHostSec * 1e3
	w.classOps[req.class]++
	if err != nil {
		return r, &opError{"simulate: " + err.Error()}
	}
	if tr.on {
		w.simNs += r.simHostSec * 1e9
		w.simAllocs += float64(tr.heapAllocs() - s.a)
		for _, n := range res.Injected {
			w.simPkts += n
		}
		for i, n := range platformFrames() {
			w.frames[i] += float64(n - frames0[i])
		}
		// The walk needs the deployment's steering as compiled; crash and
		// churn ops have rewired it mid-run.
		if req.cfg.Faults == nil && req.cfg.Churn == nil {
			if w.walk == nil {
				w.walk = newWalkStats()
			}
			if err := w.walk.walk(d, req.cfg.Seed); err != nil {
				return r, &checkError{err.Error()}
			}
		}
	}
	if f := res.Failover; f != nil && f.ReplaceError != "" {
		return r, &opError{"failover: " + f.ReplaceError}
	}
	if c := res.Churn; c != nil && len(c.Rejected) > 0 {
		return r, &opError{"churn: " + strings.Join(c.Rejected, "; ")}
	}
	for i := range res.Injected {
		r.simInjected += res.Injected[i]
		r.simDropped += int(res.DropRate[i]*float64(res.Injected[i]) + 0.5)
		r.modelBps += res.AchievedBps[i]
		if res.P99QueueDelaySec[i] > r.simP99Sec {
			r.simP99Sec = res.P99QueueDelaySec[i]
		}
	}
	for i, tmin := range req.tmins {
		want := tmin
		if offered[i] < want {
			want = offered[i]
		}
		if res.AchievedBps[i] >= 0.99*want {
			r.chainsMet++
		}
	}
	if r.simInjected == 0 {
		return r, &checkError{fmt.Sprintf("simulation injected no packets (scale %g, %gs, %d chains, offered %v)", req.cfg.Scale, req.cfg.DurationSec, len(offered), offered)}
	}
	enc, err := json.Marshal(res)
	if err != nil {
		return r, &checkError{"encode SimResult: " + err.Error()}
	}
	r.model = string(enc)
	return r, nil
}

// timeSchedule times building the op's FlowScale flow schedules the way
// the simulator builds them (one per chain), outside Simulate.
func (w *sim) timeSchedule(req simReq) error {
	t := time.Now()
	for ci, g := range req.p.in.Chains {
		agg := g.Chain.Aggregate
		_, err := trafficgen.ScheduleInto(nil, trafficgen.Config{
			Mode: trafficgen.LongLived, Seed: req.cfg.Seed + int64(ci),
			SrcCIDR: agg.SrcCIDR, DstCIDR: agg.DstCIDR, Proto: agg.Proto, DstPort: agg.DstPort,
			Flows: req.cfg.FlowScale,
		}, req.cfg.DurationSec)
		if err != nil {
			return err
		}
	}
	w.schedNs += float64(time.Since(t).Nanoseconds())
	w.schedOps++
	return nil
}

func (w *sim) layerMetrics(m map[string]float64) {
	if w.simPkts > 0 {
		m["runtime.sim_ns_per_pkt"] = w.simNs / float64(w.simPkts)
		m["runtime.allocs_per_pkt"] = w.simAllocs / float64(w.simPkts)
		for i, p := range platforms {
			m["runtime.frames_per_pkt."+p] = w.frames[i] / float64(w.simPkts)
		}
	}
	if w.schedOps > 0 {
		m["trafficgen.schedule_ms"] = w.schedNs / float64(w.schedOps) / 1e6
	}
	if w.walk != nil {
		w.walk.metrics(m)
		// The engine's own cost per packet: Simulate time less the walk's
		// per-frame layer costs weighted by the frames Simulate ran.
		m["runtime.engine_ns_per_pkt"] = m["runtime.sim_ns_per_pkt"] - m["trafficgen.ns_per_frame"] -
			m["pisa.ns_per_frame"]*m["runtime.frames_per_pkt.pisa"] -
			m["bess.ns_per_frame"]*m["runtime.frames_per_pkt.server"] -
			m["smartnic.ns_per_frame"]*m["runtime.frames_per_pkt.smartnic"]
	}
}

// platforms are the lemur_frames_total platform labels the sim reaches.
var platforms = [3]string{"pisa", "server", "smartnic"}

// platformFrames reads the program's per-platform frame counters.
func platformFrames() [3]uint64 {
	var out [3]uint64
	for i, p := range platforms {
		out[i] = obs.C("lemur_frames_total", obs.L("platform", p)).Value()
	}
	return out
}

func (w *sim) notes() []string {
	var out []string
	for _, c := range w.classes {
		if n := w.classOps[c.name]; n > 0 {
			out = append(out, fmt.Sprintf("class %-10s %4d ops, mean Simulate %.1f ms", c.name, n, w.classMs[c.name]/float64(n)))
		}
	}
	return out
}
