package main

import (
	"math/rand"
	"strings"
	"time"

	"lemur/internal/metacompiler"
	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/packet"
	"lemur/internal/pisa"
	"lemur/internal/trafficgen"
)

// walkFramesPerChain is how many frames a traced sim op walks per chain.
const walkFramesPerChain = 64

// maxHops bounds one frame's platform transitions, as runtime.Verify does.
const maxHops = 64

// walkStats accumulates the traced hop-by-hop walk: wall ns per platform
// entry call, per NF class, and for the in-place NSH codec.
type walkStats struct {
	frames                       int
	genNs, pisaNs, bessNs, nicNs float64
	nshNs                        float64
	pisaHops, bessHops, nicHops  int
	nshOps                       int
	nfNs                         map[string]float64
	nfPkts                       map[string]int
	scratch, nfPkt               packet.Packet
	nshBuf, nfBuf                []byte
}

func newWalkStats() *walkStats {
	return &walkStats{nfNs: map[string]float64{}, nfPkts: map[string]int{}}
}

// walk pushes frames generated from each chain's aggregate through the
// deployment's exported per-frame entries, taking the hops runtime.Verify
// takes, and times every NF class's Process on the same frames with fresh
// NF instances. It reports an error when steering wedges.
func (ws *walkStats) walk(d *metacompiler.Deployment, seed int64) error {
	env := &nf.Env{Rand: rand.New(rand.NewSource(seed))}
	for ci, g := range d.Input.Chains {
		agg := g.Chain.Aggregate
		gen, err := trafficgen.New(trafficgen.Config{
			Mode: trafficgen.LongLived, Seed: seed + int64(ci),
			SrcCIDR: agg.SrcCIDR, DstCIDR: agg.DstCIDR, Proto: agg.Proto, DstPort: agg.DstPort,
		})
		if err != nil {
			return err
		}
		// Classes are keyed by their chain-spec name (BPF is the Match NF).
		var insts []nf.NF
		var classes []string
		for _, n := range g.Order {
			inst, err := nf.New(n.Class(), n.Name(), n.Inst.Params)
			if err != nil {
				return err
			}
			insts = append(insts, inst)
			classes = append(classes, strings.ToLower(n.Class()))
		}
		var buf []byte
		for i := 0; i < walkFramesPerChain; i++ {
			env.NowSec = float64(i) * 1e-5
			t := time.Now()
			buf = gen.NextInto(buf, env.NowSec)
			ws.genNs += float64(time.Since(t).Nanoseconds())
			ws.frames++
			for k, inst := range insts {
				ws.nfBuf = append(ws.nfBuf[:0], buf...)
				if err := ws.nfPkt.Decode(ws.nfBuf); err != nil {
					return err
				}
				t = time.Now()
				inst.Process(&ws.nfPkt, env)
				ws.nfNs[classes[k]] += float64(time.Since(t).Nanoseconds())
				ws.nfPkts[classes[k]]++
			}
			if err := ws.hops(d, buf, env); err != nil {
				return err
			}
		}
	}
	return nil
}

func (ws *walkStats) hops(d *metacompiler.Deployment, frame []byte, env *nf.Env) error {
	for hop := 0; hop < maxHops; hop++ {
		t := time.Now()
		out, fwd, err := d.Switch.ProcessFrameInto(&ws.scratch, frame, env)
		ws.pisaNs += float64(time.Since(t).Nanoseconds())
		ws.pisaHops++
		if err != nil {
			return err
		}
		switch fwd.Kind {
		case pisa.Egress, pisa.Dropped:
			return nil
		case pisa.Continue:
			frame = out
		case pisa.ToServer:
			ws.nsh(out)
			t = time.Now()
			frame, err = d.Pipelines[fwd.Target].ProcessFrameInPlace(out, env)
			ws.bessNs += float64(time.Since(t).Nanoseconds())
			ws.bessHops++
		case pisa.ToNIC:
			ws.nsh(out)
			t = time.Now()
			frame, err = d.NICs[fwd.Target].ProcessFrameInPlace(out, env)
			ws.nicNs += float64(time.Since(t).Nanoseconds())
			ws.nicHops++
		default:
			return errWalk("unsupported forward " + fwd.Kind.String())
		}
		if err != nil {
			return err
		}
		if frame == nil {
			return nil // dropped by an NF
		}
	}
	return errWalk("frame exceeded the hop budget")
}

// nsh times one in-place decap and re-encap of a copy of an NSH frame.
func (ws *walkStats) nsh(frame []byte) {
	ws.nshBuf = append(ws.nshBuf[:0], frame...)
	t := time.Now()
	inner, spi, si, err := nsh.DecapInPlace(ws.nshBuf)
	if err == nil {
		_, err = nsh.EncapInPlace(inner, spi, si)
	}
	ws.nshNs += float64(time.Since(t).Nanoseconds())
	if err == nil {
		ws.nshOps++
	}
}

type errWalk string

func (e errWalk) Error() string { return "walk: " + string(e) }

// metrics renders the walk's per-layer figures.
func (ws *walkStats) metrics(m map[string]float64) {
	per := func(ns float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return ns / float64(n)
	}
	m["trafficgen.ns_per_frame"] = per(ws.genNs, ws.frames)
	m["pisa.ns_per_frame"] = per(ws.pisaNs, ws.pisaHops)
	m["bess.ns_per_frame"] = per(ws.bessNs, ws.bessHops)
	m["smartnic.ns_per_frame"] = per(ws.nicNs, ws.nicHops)
	m["nsh.ns_per_frame"] = per(ws.nshNs, ws.nshOps)
	for class, ns := range ws.nfNs {
		m["nf."+class+".ns_per_pkt"] = per(ns, ws.nfPkts[class])
	}
}
