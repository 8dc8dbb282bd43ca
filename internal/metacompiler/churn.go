package metacompiler

import (
	"fmt"

	"lemur/internal/obs"
	"lemur/internal/placer"
)

// AdmitChains extends a live deployment with newly admitted chains, applying
// a purely additive delta: new SPI ranges (each admitted chain's slot index
// fixes its range), new core assignments drawn from the free set, and new
// steering rules. No pinned state is touched — surviving chains keep their
// switch entries, classifier rules, BESS subgroups, core shares and NF
// instances by pointer identity, exactly as Rewire guarantees for failover.
//
// newIn must be the grown placer input whose chain prefix is pointer-
// identical to the deployment's current chains and whose contiguous tail is
// named by added; next must be the pin-preserving result of placer.Admit
// (AdmitIncremental). Applying a full-repack result requires a fresh Compile
// instead — that is the disruptive path the admission verdict warns about.
func (d *Deployment) AdmitChains(newIn *placer.Input, next *placer.Result, added []int) (*RewireReport, error) {
	if newIn == nil || next == nil {
		return nil, fmt.Errorf("metacompiler: AdmitChains needs an input and a result")
	}
	nOld := len(d.Input.Chains)
	if len(newIn.Chains) != nOld+len(added) {
		return nil, fmt.Errorf("metacompiler: AdmitChains: input has %d chains, deployment %d + %d added",
			len(newIn.Chains), nOld, len(added))
	}
	for ci := 0; ci < nOld; ci++ {
		if newIn.Chains[ci] != d.Input.Chains[ci] {
			return nil, fmt.Errorf("metacompiler: AdmitChains: chain slot %d changed (prefix must be pointer-identical)", ci)
		}
	}
	for i, ci := range added {
		if ci != nOld+i {
			return nil, fmt.Errorf("metacompiler: AdmitChains: added chains must be the contiguous tail [%d,%d), got %v",
				nOld, len(newIn.Chains), added)
		}
	}

	d.dropArtifacts()
	// New chains' SPI identity is fixed by their slot index; append their
	// service paths before the rewire installs against them.
	for _, ci := range added {
		sps, err := chainServicePaths(newIn.Chains[ci], ci)
		if err != nil {
			return nil, err
		}
		d.ChainPaths = append(d.ChainPaths, sps)
	}
	d.Input = newIn

	// From here an admission is a rewire whose affected set happens to own
	// no prior state: retraction is a no-op, installation is purely
	// additive, and the shared pinning machinery proves nothing else moved.
	rep, err := d.Rewire(next, added)
	if err != nil {
		return nil, err
	}
	obs.C("lemur_admit_chains_total").Inc()
	return rep, nil
}

// RetireChains retracts departed chains from a live deployment, reclaiming
// their switch entries, classifier rules, BESS subgroups, core shares, and
// SmartNIC programs. The chain slots (and their SPI ranges) are never
// reused; next must be the result of placer.Retire, which marks the slots in
// Retired and carries every surviving chain's subgroups by pointer.
//
// Retirement is retraction-only: no new state is installed, so surviving
// chains' rules and instances are untouched (the Kept counts in the report
// prove it).
func (d *Deployment) RetireChains(next *placer.Result, gone []int) (*RewireReport, error) {
	if next == nil || !next.Feasible {
		reason := "nil result"
		if next != nil {
			reason = next.Reason
		}
		return nil, fmt.Errorf("metacompiler: retire to infeasible placement: %s", reason)
	}
	for _, ci := range gone {
		if ci < 0 || ci >= len(d.Input.Chains) {
			return nil, fmt.Errorf("metacompiler: retire: chain index %d out of range", ci)
		}
		if !next.IsRetired(ci) {
			return nil, fmt.Errorf("metacompiler: retire: chain %d is not marked retired in the result", ci)
		}
	}
	sp := obs.Span("metacompiler.retire").SetAttrInt("gone", len(gone))
	defer sp.End()

	d.dropArtifacts()
	rep := &RewireReport{AffectedChains: append([]int(nil), gone...)}
	prevEntries := d.Switch.EntryCount()
	prevRules := d.Switch.ClassifierRuleCount()
	for _, ci := range rep.AffectedChains {
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

	// Release the retired subgroups' core shares: anything not alive in
	// next frees its cores for later admissions.
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
	d.Result = next

	if err := d.checkP4(); err != nil {
		return nil, err
	}
	obs.C("lemur_retire_chains_total").Inc()
	obs.C("lemur_rewire_rules_removed_total").Add(uint64(rep.RemovedSwitchEntries + rep.RemovedClassifierRules))
	sp.SetAttrInt("removed_entries", rep.RemovedSwitchEntries).
		SetAttrInt("kept_entries", rep.KeptSwitchEntries)
	return rep, nil
}
