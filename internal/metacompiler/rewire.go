package metacompiler

import (
	"fmt"
	"sort"

	"lemur/internal/bess"
	"lemur/internal/nf"
	"lemur/internal/nfgraph"
	"lemur/internal/obs"
	"lemur/internal/placer"
)

// RewireReport accounts for the steering state a failover rewire retracted
// and re-emitted, proving the rewire was incremental: untouched chains keep
// their installed rules (KeptSwitchEntries / KeptClassifierRules), and only
// the affected chains' SPI ranges are re-tagged.
type RewireReport struct {
	AffectedChains []int

	RemovedSwitchEntries   int
	RemovedClassifierRules int
	RemovedSubgroups       int
	RemovedNICPrograms     int

	InstalledSwitchEntries   int
	InstalledClassifierRules int
	InstalledSubgroups       int
	InstalledNICPrograms     int

	KeptSwitchEntries   int
	KeptClassifierRules int
}

// String renders the rewire's removed/installed/kept accounting on one
// line (the form the CLIs and ChurnReport.RewireSummaries print).
func (r *RewireReport) String() string {
	return fmt.Sprintf("rewire: chains %v, switch -%d/+%d entries (%d kept), rules -%d/+%d (%d kept), subgroups -%d/+%d, nic -%d/+%d",
		r.AffectedChains,
		r.RemovedSwitchEntries, r.InstalledSwitchEntries, r.KeptSwitchEntries,
		r.RemovedClassifierRules, r.InstalledClassifierRules, r.KeptClassifierRules,
		r.RemovedSubgroups, r.InstalledSubgroups,
		r.RemovedNICPrograms, r.InstalledNICPrograms)
}

// chainSPIRange returns the inclusive SPI range owned by chain ci. Chains
// stride SPIs (spiStride paths each), so ranges never overlap — the property
// every RemoveSPIRange call below relies on.
func chainSPIRange(ci int) (lo, hi uint32) {
	return uint32(ci*spiStride + 1), uint32((ci + 1) * spiStride)
}

// Rewire applies an incremental re-placement (placer.Replace) to a live
// deployment: it retracts the affected chains' steering state — switch path
// entries, classifier rules, server subgroups, NIC programs — by SPI range,
// then re-emits only those chains against the new placement. Pinned chains'
// rules, subgroups, core shares and NF instances are untouched; re-placed
// chains get fresh NF instances (their state restarts, as on a real
// migration) and concrete cores drawn from the surviving free set.
//
// The deployment's Result is swapped to next; ChainPaths (SPI identity) are
// placement-independent and stay valid. The new P4 program is checked as
// Compile checks it, and Artifacts renders the new programs on next read.
func (d *Deployment) Rewire(next *placer.Result, affected []int) (*RewireReport, error) {
	if next == nil || !next.Feasible {
		reason := "nil result"
		if next != nil {
			reason = next.Reason
		}
		return nil, fmt.Errorf("metacompiler: rewire to infeasible placement: %s", reason)
	}
	sp := obs.Span("metacompiler.rewire").SetAttrInt("affected", len(affected))
	defer sp.End()

	// Dedup, validate, and order the affected set.
	seen := map[int]bool{}
	cis := make([]int, 0, len(affected))
	for _, ci := range affected {
		if ci < 0 || ci >= len(d.Input.Chains) {
			return nil, fmt.Errorf("metacompiler: rewire: chain index %d out of range", ci)
		}
		if !seen[ci] {
			seen[ci] = true
			cis = append(cis, ci)
		}
	}
	sort.Ints(cis)

	d.dropArtifacts()
	rep := &RewireReport{AffectedChains: cis}
	prevEntries := d.Switch.EntryCount()
	prevRules := d.Switch.ClassifierRuleCount()

	// Retract the affected chains' steering state by SPI range.
	for _, ci := range cis {
		lo, hi := chainSPIRange(ci)
		e, r := d.Switch.RemoveSPIRange(lo, hi)
		rep.RemovedSwitchEntries += e
		rep.RemovedClassifierRules += r
		for _, pl := range d.Pipelines {
			for _, bsg := range pl.RemoveSPIRange(lo, hi) {
				delete(d.SubgroupOf, bsg)
				rep.RemovedSubgroups++
			}
		}
		for _, nic := range d.NICs {
			rep.RemovedNICPrograms += nic.UnloadSPIRange(lo, hi)
		}
	}
	rep.KeptSwitchEntries = prevEntries - rep.RemovedSwitchEntries
	rep.KeptClassifierRules = prevRules - rep.RemovedClassifierRules

	// Drop share bookkeeping for placer subgroups that did not survive the
	// re-placement (the affected chains' old subgroups), then lay fresh
	// subgroups onto cores left free by the pinned ones.
	live := make(map[*placer.Subgroup]bool, len(next.Subgroups))
	for _, psg := range next.Subgroups {
		live[psg] = true
	}
	for psg := range d.Shares {
		if !live[psg] {
			delete(d.Shares, psg)
			delete(d.claimed, psg)
		}
	}
	if err := d.assignCoresIncremental(next); err != nil {
		return nil, err
	}
	keptSubs, keptNIC := d.subgroupCount(), d.nicProgramCount()

	// Re-emit only the affected chains against the new placement.
	d.Result = next
	insts, err := instantiateChains(d.Input, cis)
	if err != nil {
		return nil, err
	}
	for _, ci := range cis {
		if err := d.installChain(ci, insts, d.Shares); err != nil {
			return nil, err
		}
	}
	rep.InstalledSwitchEntries = d.Switch.EntryCount() - rep.KeptSwitchEntries
	rep.InstalledClassifierRules = d.Switch.ClassifierRuleCount() - rep.KeptClassifierRules
	rep.InstalledSubgroups = d.subgroupCount() - keptSubs
	rep.InstalledNICPrograms = d.nicProgramCount() - keptNIC

	if err := d.checkP4(); err != nil {
		return nil, err
	}
	obs.C("lemur_rewires_total").Inc()
	obs.C("lemur_rewire_rules_removed_total").Add(uint64(rep.RemovedSwitchEntries + rep.RemovedClassifierRules))
	obs.C("lemur_rewire_rules_installed_total").Add(uint64(rep.InstalledSwitchEntries + rep.InstalledClassifierRules))
	sp.SetAttrInt("removed_entries", rep.RemovedSwitchEntries).
		SetAttrInt("installed_entries", rep.InstalledSwitchEntries).
		SetAttrInt("kept_entries", rep.KeptSwitchEntries)
	return rep, nil
}

func (d *Deployment) subgroupCount() int {
	n := 0
	for _, pl := range d.Pipelines {
		n += len(pl.Subgroups())
	}
	return n
}

func (d *Deployment) nicProgramCount() int {
	n := 0
	for _, nic := range d.NICs {
		n += nic.ProgramCount()
	}
	return n
}

// assignCoresIncremental gives concrete core shares to every subgroup in
// next that lacks them, scanning each server's cores upward from the
// reserved demux block and skipping cores held by pinned subgroups. The
// scan order is deterministic (next.Subgroups order, ascending cores), so
// rewires are byte-reproducible.
func (d *Deployment) assignCoresIncremental(next *placer.Result) error {
	used := map[string]map[int]bool{}
	for _, srv := range d.Input.Topo.Servers {
		used[srv.Name] = map[int]bool{}
	}
	for _, psg := range next.Subgroups {
		if shares, ok := d.Shares[psg]; ok {
			for _, s := range shares {
				used[psg.Server][s.Core] = true
			}
		}
	}
	for _, psg := range next.Subgroups {
		if _, ok := d.Shares[psg]; ok {
			continue
		}
		srv, err := d.Input.Topo.ServerByName(psg.Server)
		if err != nil {
			return err
		}
		shares := make([]bess.CoreShare, 0, psg.Cores)
		for core := srv.ReservedCores; len(shares) < psg.Cores; core++ {
			if core >= srv.TotalCores() {
				return fmt.Errorf("metacompiler: server %s out of cores for %s", psg.Server, psg.Name())
			}
			if used[psg.Server][core] {
				continue
			}
			used[psg.Server][core] = true
			shares = append(shares, bess.CoreShare{Core: core, Fraction: 1})
		}
		d.Shares[psg] = shares
	}
	return nil
}

// instantiateChains builds fresh NF instances for just the given chains.
func instantiateChains(in *placer.Input, cis []int) (map[*nfgraph.Node]nf.NF, error) {
	out := make(map[*nfgraph.Node]nf.NF)
	for _, ci := range cis {
		g := in.Chains[ci]
		for _, n := range g.Order {
			inst, err := nf.New(n.Class(), g.Chain.Name+"/"+n.Name(), n.Inst.Params)
			if err != nil {
				return nil, fmt.Errorf("metacompiler: %w", err)
			}
			out[n] = inst
		}
	}
	return out, nil
}
