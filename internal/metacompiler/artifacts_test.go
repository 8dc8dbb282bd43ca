package metacompiler

import (
	"fmt"
	"sync"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/p4"
	"lemur/internal/placer"
)

// rejectSpec puts an ACL (an ipv4-parsing library class) on the switch ahead
// of each chain's IPv4Fwd, so parser merging always meets ACL's graph first.
const rejectSpec = `
chain alpha {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.1.0.0/16 }
  acl0 = ACL(allow_dst = "172.16.0.0/12", rules = 64)
  mon0 = Monitor()
  fwd0 = IPv4Fwd()
  acl0 -> mon0 -> fwd0
}
chain beta {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.2.0.0/16 }
  acl0 = ACL(allow_dst = "172.16.0.0/12", rules = 64)
  nat0 = NAT()
  fwd0 = IPv4Fwd()
  acl0 -> nat0 -> fwd0
}`

// conflictingFwd sends ethertype 0x0800 to vlan where every other library
// parser sends it to ipv4: the one possible §A.2.1 conflict.
const conflictingFwd = `
nf ipv4fwd {
  headers { ethernet, vlan }
  parser {
    ethernet select ethertype { 0x0800 -> vlan }
    vlan { -> accept }
  }
  table fwd_tbl {
    keys { ethernet.dst }
    actions { set_egress }
    size 16
  }
  control { fwd_tbl }
}`

// swapLibrary replaces (or, with prog nil, removes) an existing p4.Library
// entry for the rest of the test.
func swapLibrary(t *testing.T, class string, prog *p4.Program) {
	old := p4.Library[class]
	if prog == nil {
		delete(p4.Library, class)
	} else {
		p4.Library[class] = prog
	}
	t.Cleanup(func() { p4.Library[class] = old })
}

// eagerP4Check is the P4 check as every mutation ran it when it also
// rendered the text: every switch-resident instance's mangled parser is
// merged, in chain order.
func eagerP4Check(d *Deployment) error {
	var progs []*p4.Program
	for _, g := range d.Input.Chains {
		for _, n := range g.Order {
			if asg, ok := d.Result.Assign[n]; !ok || asg.Platform != hw.PISA {
				continue
			}
			lib, ok := p4.Library[n.Meta.Class]
			if !ok {
				return fmt.Errorf("metacompiler: no P4 library program for %s", n.Meta.Class)
			}
			progs = append(progs, lib.Mangle(g.Chain.Name+"_"+n.Name()))
		}
	}
	merged := p4.NewGraph()
	for _, prog := range progs {
		if err := merged.Merge(prog.Parser); err != nil {
			return fmt.Errorf("metacompiler: %w", err)
		}
	}
	return nil
}

// TestP4RejectionsAtEveryMutation: a parser conflict or a missing library
// program is rejected by Compile, Rewire and AdmitChains with the text the
// per-instance merge gives, though no artifact text is rendered.
func TestP4RejectionsAtEveryMutation(t *testing.T) {
	cases := []struct {
		name string
		lib  *p4.Program // IPv4Fwd's replacement; nil removes it
		want string
	}{
		{"parser conflict", p4.MustParseProgram(conflictingFwd),
			`metacompiler: p4: conflicting parser transitions: state "ethernet" value "0x0800" -> "ipv4" vs "vlan"`},
		{"missing library", nil, "metacompiler: no P4 library program for IPv4Fwd"},
	}
	stages := []struct {
		name string
		run  func(t *testing.T, swap func()) (*Deployment, error)
	}{
		{"Compile", func(t *testing.T, swap func()) (*Deployment, error) {
			in, d := compileSpec(t, hw.NewPaperTestbed(), rejectSpec)
			swap()
			_, err := Compile(in, d.Result)
			return d, err
		}},
		{"Rewire", func(t *testing.T, swap func()) (*Deployment, error) {
			in, d := compileSpec(t, hw.NewPaperTestbed(hw.WithServers(2)), rejectSpec)
			failed := placer.NewNodeSet(d.Result.Subgroups[0].Server)
			affected := placer.AffectedChains(in, d.Result, failed.Expand(in.Topo))
			next, err := placer.Replace(d.Result, in, failed)
			if err != nil || !next.Feasible {
				t.Fatalf("Replace: err %v, result %+v", err, next)
			}
			swap()
			_, err = d.Rewire(next, affected)
			return d, err
		}},
		{"AdmitChains", func(t *testing.T, swap func()) (*Deployment, error) {
			in, d := compileWithHeadroom(t, rejectSpec, 4)
			chains, err := nfspec.Parse(churnAdmitSpec)
			if err != nil {
				t.Fatal(err)
			}
			g, err := nfgraph.Build(chains[0])
			if err != nil {
				t.Fatal(err)
			}
			grown := *in
			grown.Chains = append(append([]*nfgraph.Graph(nil), in.Chains...), g)
			rep, err := placer.Admit(d.Result, &grown, []int{2})
			if err != nil || rep.Outcome != placer.AdmitIncremental {
				t.Fatalf("Admit: err %v, report %+v", err, rep)
			}
			swap()
			_, err = d.AdmitChains(&grown, rep.Result, []int{2})
			return d, err
		}},
	}
	for _, c := range cases {
		for _, st := range stages {
			t.Run(c.name+"/"+st.name, func(t *testing.T) {
				d, err := st.run(t, func() { swapLibrary(t, "IPv4Fwd", c.lib) })
				if err == nil {
					t.Fatal("mutation accepted an unbuildable P4 program")
				}
				if err.Error() != c.want {
					t.Errorf("err = %q, want %q", err, c.want)
				}
				if ref := eagerP4Check(d); ref == nil || ref.Error() != err.Error() {
					t.Errorf("err = %q, per-instance merge gives %v", err, ref)
				}
			})
		}
	}
}

// TestArtifactsConcurrentReaders: readers racing on a fresh deployment's
// first render all get the one memoized Artifacts.
func TestArtifactsConcurrentReaders(t *testing.T) {
	_, d := compileSpec(t, hw.NewPaperTestbed(), linearSpec)
	const readers = 8
	got := make([]*Artifacts, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = d.Artifacts()
		}(i)
	}
	wg.Wait()
	for i, a := range got {
		if a == nil || a != got[0] {
			t.Fatalf("reader %d got %p, reader 0 got %p", i, a, got[0])
		}
	}
	if got[0].P4TotalLines == 0 {
		t.Error("concurrent render produced no P4 text")
	}
}
