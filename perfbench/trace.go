package main

import (
	"runtime/metrics"
	"sort"
	"time"

	"lemur/internal/obs"
)

// tracer times the benchmark's calls into each layer in traced runs. When
// off (every untraced run) begin and end do nothing but a branch.
type tracer struct {
	on     bool
	ops    int
	sample []metrics.Sample
	ns     map[string]float64 // summed wall ns per timed call site
	calls  map[string]int
	allocs map[string]float64 // summed heap allocations per layer
	vals   map[string]float64 // per-op quantities, summed
}

type stamp struct {
	t time.Time
	a uint64
}

func (t *tracer) enable() {
	t.on = true
	t.sample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	t.ns = map[string]float64{}
	t.calls = map[string]int{}
	t.allocs = map[string]float64{}
	t.vals = map[string]float64{}
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

func (t *tracer) begin() stamp {
	if !t.on {
		return stamp{}
	}
	return stamp{t: time.Now(), a: t.heapAllocs()}
}

// end closes a call site: site is the timed metric's stem ("nfspec.parse"
// reports nfspec.parse_us), layer the allocation bucket ("nfspec" reports
// nfspec.allocs).
func (t *tracer) end(site, layer string, s stamp) {
	if !t.on {
		return
	}
	d := time.Since(s.t)
	t.ns[site] += float64(d.Nanoseconds())
	t.calls[site]++
	if layer != "" {
		t.allocs[layer] += float64(t.heapAllocs() - s.a)
	}
}

// add accumulates a named quantity (traced runs only).
func (t *tracer) add(name string, v float64) {
	if t.on {
		t.vals[name] += v
	}
}

// metrics renders per-call means in µs and per-op allocation counts.
func (t *tracer) metrics() map[string]float64 {
	m := map[string]float64{}
	for site, ns := range t.ns {
		m[site+"_us"] = ns / float64(t.calls[site]) / 1e3
	}
	if t.ops > 0 {
		for layer, a := range t.allocs {
			m[layer+".allocs"] = a / float64(t.ops)
		}
		for name, v := range t.vals {
			m[name] = v / float64(t.ops)
		}
	}
	return m
}

// span reads one obs span histogram (zero when the span never ended).
func span(snap *obs.Snapshot, name string) obs.HistogramSnap {
	for _, h := range snap.Histograms {
		if h.Name == "lemur_span_seconds" && len(h.Labels) == 1 && h.Labels[0].Value == name {
			return h
		}
	}
	return obs.HistogramSnap{}
}

// counterSum sums a counter family, optionally filtered by one label.
func counterSum(snap *obs.Snapshot, name, key, value string) float64 {
	total := 0.0
	for _, c := range snap.Counters {
		if c.Name != name {
			continue
		}
		if key != "" {
			match := false
			for _, l := range c.Labels {
				if l.Key == key && l.Value == value {
					match = true
				}
			}
			if !match {
				continue
			}
		}
		total += float64(c.Value)
	}
	return total
}

// harvestObs fills the per-layer metrics that only the program's own obs
// spans and counters can see (calls made inside another layer's call).
func harvestObs(m map[string]float64, tr *tracer) {
	snap := obs.Default().Snapshot()
	for metric, name := range map[string]string{
		"placer.admit_us":        "placer.admit",
		"placer.retire_us":       "placer.retire",
		"metacompiler.rewire_us": "metacompiler.rewire",
		"metacompiler.retire_us": "metacompiler.retire",
		"runtime.reconfig_us":    "metacompiler.rewire",
	} {
		if h := span(snap, name); h.Count > 0 {
			m[metric] = h.Mean * 1e6
		}
	}
	// daemon.self_us: reconcile-pass time outside the placer and
	// metacompiler spans it contains. A repack runs placer.place inside
	// placer.admit, so passes that repack subtract that stretch twice.
	if ticks := tr.calls["daemon.tick"] + tr.calls["daemon.crash_tick"]; ticks > 0 {
		child := 0.0
		for _, name := range []string{"placer.place", "placer.admit", "placer.retire",
			"metacompiler.compile", "metacompiler.rewire", "metacompiler.retire"} {
			child += span(snap, name).Sum * 1e9
		}
		m["daemon.self_us"] = (tr.ns["daemon.tick"] + tr.ns["daemon.crash_tick"] - child) / float64(ticks) / 1e3
	}
	for _, h := range snap.Histograms {
		if h.Name == "lemur_placer_admit_pinned_subgroups" && h.Count > 0 {
			m["placer.admit_pinned_subgroups"] = h.Mean
		}
	}

	if places := counterSum(snap, "lemur_placer_placements_total", "", ""); places > 0 {
		m["placer.lp_solves"] = counterSum(snap, "lemur_placer_lp_solves_total", "", "") / places
	}
	if hits, total := counterSum(snap, "lemur_placer_stage_memo_total", "result", "hit"), counterSum(snap, "lemur_placer_stage_memo_total", "", ""); total > 0 {
		m["placer.stage_memo_hit_frac"] = hits / total
	}
	if hits, total := counterSum(snap, "lemur_pisa_compile_cache_total", "result", "hit"), counterSum(snap, "lemur_pisa_compile_cache_total", "", ""); total > 0 {
		m["pisa.cache_hit_frac"] = hits / total
	}
	if admits := counterSum(snap, "lemur_placer_admit_total", "", ""); admits > 0 {
		m["placer.admit_incremental_frac"] = counterSum(snap, "lemur_placer_admit_outcome_total", "outcome", "incremental") / admits
	}
	for _, h := range snap.Histograms {
		if h.Name == "lemur_sim_queue_depth" && h.Count > 0 && h.P99 > m["runtime.queue_depth_p99"] {
			m["runtime.queue_depth_p99"] = h.P99
		}
	}
	for _, g := range snap.Gauges {
		if g.Name == "lemur_nf_state_entries" {
			m["nf.state_entries"] += g.Value
		}
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
