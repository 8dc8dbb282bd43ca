package smartnic

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"lemur/internal/bpf"
	"lemur/internal/hw"
	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/packet"
)

func nicSpec() *hw.SmartNICSpec {
	return hw.NewPaperTestbed(hw.WithSmartNIC()).SmartNICs[0]
}

func TestVerifierLimits(t *testing.T) {
	spec := nicSpec()
	ok := SynthesizeNF("ok", 100, 64)
	if err := Verify(ok, spec); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
	big := SynthesizeNF("big", 5000, 64)
	if err := Verify(big, spec); !errors.Is(err, ErrTooManyInsns) {
		t.Errorf("oversize: %v", err)
	}
	deep := SynthesizeNF("deep", 100, 1024)
	if err := Verify(deep, spec); !errors.Is(err, ErrStackLimit) {
		t.Errorf("stack: %v", err)
	}
	back := &Program{Insns: []Insn{
		{Op: OpMovImm, Dst: 0, Imm: 1},
		{Op: OpJA, Off: -1},
		{Op: OpExit},
	}}
	if err := Verify(back, spec); !errors.Is(err, ErrBackEdge) {
		t.Errorf("back edge: %v", err)
	}
	call := &Program{Insns: []Insn{{Op: OpCall}, {Op: OpExit}}}
	if err := Verify(call, spec); !errors.Is(err, ErrCall) {
		t.Errorf("call: %v", err)
	}
	noExit := &Program{Insns: []Insn{{Op: OpMovImm, Dst: 0, Imm: 1}}}
	if err := Verify(noExit, spec); !errors.Is(err, ErrNoExit) {
		t.Errorf("no exit: %v", err)
	}
	badReg := &Program{Insns: []Insn{{Op: OpMovImm, Dst: 99}, {Op: OpExit}}}
	if err := Verify(badReg, spec); !errors.Is(err, ErrBadRegister) {
		t.Errorf("bad reg: %v", err)
	}
	jumpPast := &Program{Insns: []Insn{{Op: OpJA, Off: 5}, {Op: OpExit}}}
	if err := Verify(jumpPast, spec); err == nil {
		t.Error("jump past end must fail")
	}
	stackOOB := &Program{StackBytes: 8, Insns: []Insn{{Op: OpStackW, Dst: 1, Off: 8}, {Op: OpExit}}}
	if err := Verify(stackOOB, spec); !errors.Is(err, ErrStackLimit) {
		t.Errorf("stack oob: %v", err)
	}
	if err := Verify(&Program{}, spec); err == nil {
		t.Error("empty program must fail")
	}
}

func TestChaChaBarelyFits(t *testing.T) {
	// The registry says ChaCha compiles to ~3600 instructions: it must pass
	// the 4096 limit, reproducing "we solved these challenges by ... loop
	// unrolling" (§A.3).
	chacha := SynthesizeNF("chacha", nf.Registry["FastEncrypt"].EBPFInstructions, 256)
	if err := Verify(chacha, nicSpec()); err != nil {
		t.Errorf("chacha must fit: %v", err)
	}
	if got, err := Run(chacha, testFrame(80)); err != nil || got != XDPPass {
		t.Errorf("chacha run = %d, %v", got, err)
	}
}

// TestRunChaChaAllocFree: interpreting the 3600-instruction ChaCha program
// allocates nothing per packet — the stack lives in Run's frame.
func TestRunChaChaAllocFree(t *testing.T) {
	chacha := SynthesizeNF("chacha", 3600, 256)
	frame := testFrame(80)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Run(chacha, frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Run allocates %.1f times per packet, want 0", allocs)
	}
}

// TestRunOversizedStack: a program declaring more stack than the verifier
// allows still runs unverified, on a heap stack.
func TestRunOversizedStack(t *testing.T) {
	p := &Program{StackBytes: 1024, Insns: []Insn{
		{Op: OpMovImm, Dst: 1, Imm: 0x0102030405060708},
		{Op: OpStackW, Dst: 1, Off: 1000},
		{Op: OpLdStkW, Dst: 0, Off: 1000},
		{Op: OpExit},
	}}
	if got, err := Run(p, testFrame(80)); err != nil || got != 0x0102030405060708 {
		t.Errorf("run = %#x, %v; want the stored word back", got, err)
	}
}

func testFrame(dport uint16) []byte {
	return packet.Builder{
		Src: packet.IPv4Addr{10, 1, 2, 3}, Dst: packet.IPv4Addr{172, 16, 5, 6},
		SrcPort: 3333, DstPort: dport, Proto: packet.IPProtoTCP,
		Payload: make([]byte, 64),
	}.Build()
}

func TestCompileFilterMatchesInterpreter(t *testing.T) {
	exprs := []string{
		"ip.src in 10.0.0.0/8",
		"ip.dst == 172.16.5.6",
		"tcp.dport == 443 || tcp.dport == 80",
		"ip.proto == 6 && port.src >= 1024",
		"!(ip.tos == 0) || udp.dport < 100",
		"true",
		"false",
		"ip.src in 10.1.0.0/16 && !(tcp.dport == 22)",
	}
	spec := nicSpec()
	for _, expr := range exprs {
		f := bpf.MustCompile(expr)
		prog, err := CompileFilter(expr, f)
		if err != nil {
			t.Errorf("compile %q: %v", expr, err)
			continue
		}
		if err := Verify(prog, spec); err != nil {
			t.Errorf("verify %q: %v", expr, err)
			continue
		}
		for _, dport := range []uint16{22, 80, 443, 8080} {
			frame := testFrame(dport)
			var p packet.Packet
			if err := p.Decode(frame); err != nil {
				t.Fatal(err)
			}
			want := XDPDrop
			if f.Match(&p) {
				want = XDPPass
			}
			got, err := Run(prog, frame)
			if err != nil {
				t.Errorf("%q dport=%d: %v", expr, dport, err)
				continue
			}
			if got != want {
				t.Errorf("%q dport=%d: ebpf=%d interpreter=%d", expr, dport, got, want)
			}
		}
	}
}

func TestCompileFilterRandomProperty(t *testing.T) {
	// Random packets through a fixed nontrivial filter: eBPF and interpreter
	// must always agree.
	f := bpf.MustCompile("ip.src in 10.0.0.0/8 && (tcp.dport == 443 || port.src > 2000)")
	prog, err := CompileFilter("prop", f)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	check := func(srcHi uint8, sport, dport uint16, isTCP bool) bool {
		proto := packet.IPProtoUDP
		if isTCP {
			proto = packet.IPProtoTCP
		}
		frame := packet.Builder{
			Src:   packet.IPv4Addr{srcHi, byte(rng.Intn(256)), 1, 2},
			Dst:   packet.IPv4Addr{1, 2, 3, 4},
			Proto: proto, SrcPort: sport, DstPort: dport,
		}.Build()
		var p packet.Packet
		if p.Decode(frame) != nil {
			return false
		}
		want := XDPDrop
		if f.Match(&p) {
			want = XDPPass
		}
		got, err := Run(prog, frame)
		return err == nil && got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompileFilterVLANRejected(t *testing.T) {
	if _, err := CompileFilter("v", bpf.MustCompile("vlan.vid == 5")); err == nil {
		t.Error("vlan matches must not be offloadable")
	}
}

func TestNICProcessFrame(t *testing.T) {
	nic := NewNIC(nicSpec())
	chacha, err := nf.New("FastEncrypt", "cc0", nil)
	if err != nil {
		t.Fatal(err)
	}
	prog := SynthesizeNF("chacha", 3600, 256)
	if err := nic.Load(4, 6, &PathProgram{Prog: prog, NFs: []nf.NF{chacha}, AdvanceSI: 1}); err != nil {
		t.Fatal(err)
	}
	frame := testFrame(80)
	orig := append([]byte(nil), frame...)
	enc, _ := nsh.Encap(frame, 4, 6)
	out, err := nic.ProcessFrame(enc, &nf.Env{})
	if err != nil {
		t.Fatal(err)
	}
	spi, si, err := nsh.Tag(out)
	if err != nil || spi != 4 || si != 5 {
		t.Fatalf("out tag = %d/%d, %v", spi, si, err)
	}
	// The payload must actually be encrypted.
	dec, _, _, _ := nsh.Decap(out)
	same := 0
	for i := len(dec) - 32; i < len(dec); i++ {
		if dec[i] == orig[i] {
			same++
		}
	}
	if same > 24 {
		t.Error("payload not transformed by ChaCha on the NIC")
	}
}

func TestNICLoadRejectsUnverifiable(t *testing.T) {
	nic := NewNIC(nicSpec())
	big := SynthesizeNF("big", 10000, 64)
	if err := nic.Load(1, 1, &PathProgram{Prog: big}); !errors.Is(err, ErrTooManyInsns) {
		t.Errorf("load: %v", err)
	}
	if err := nic.Load(1, 1, &PathProgram{}); err == nil {
		t.Error("nil program must fail")
	}
	// Nothing loaded: frames miss.
	enc, _ := nsh.Encap(testFrame(1), 1, 1)
	if _, err := nic.ProcessFrame(enc, &nf.Env{}); !errors.Is(err, ErrNoProgram) {
		t.Errorf("miss: %v", err)
	}
	if _, err := nic.ProcessFrame(testFrame(1), &nf.Env{}); err == nil {
		t.Error("untagged frame must fail")
	}
}

func TestNICXDPDropPath(t *testing.T) {
	nic := NewNIC(nicSpec())
	// A filter that drops everything at the XDP hook.
	prog, err := CompileFilter("none", bpf.MustCompile("false"))
	if err != nil {
		t.Fatal(err)
	}
	if err := nic.Load(2, 2, &PathProgram{Prog: prog}); err != nil {
		t.Fatal(err)
	}
	enc, _ := nsh.Encap(testFrame(1), 2, 2)
	out, err := nic.ProcessFrame(enc, &nf.Env{})
	if err != nil || out != nil {
		t.Errorf("out=%v err=%v, want nil drop", out, err)
	}
	if nic.DroppedFrames != 1 {
		t.Errorf("DroppedFrames = %d", nic.DroppedFrames)
	}
}

func TestCapacitySpeedup(t *testing.T) {
	nic := NewNIC(nicSpec())
	server := 1.7e9 / 3400.0 // one server core running ChaCha
	got := nic.CapacityPPS(1.7e9, 3400)
	if got < server*9.9 || got > server*10.1 {
		t.Errorf("NIC pps = %v, want ~10x server %v", got, server)
	}
	if nic.CapacityPPS(1.7e9, 0) != 0 {
		t.Error("zero cycles must not yield infinite capacity")
	}
}

func TestRunPacketBounds(t *testing.T) {
	// Loads beyond the frame must drop, not panic.
	p := &Program{Insns: []Insn{
		{Op: OpLdW, Dst: 1, Off: 9999},
		{Op: OpMovImm, Dst: 0, Imm: XDPPass},
		{Op: OpExit},
	}}
	got, err := Run(p, testFrame(1))
	if err != nil || got != XDPDrop {
		t.Errorf("oob load: %d, %v", got, err)
	}
}
