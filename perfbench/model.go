package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"lemur/internal/experiments"
	"lemur/internal/placer"
)

// instanceDecl matches an NF instance declaration line of a chain spec.
var instanceDecl = regexp.MustCompile(`(?m)^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*[A-Za-z]+\(`)

// variantSpec renders canonical chain idx (Table 2) as variant v: the chain
// and every NF instance get a _v<v> suffix and the chain classifies on its
// own /24 inside the canonical /16. Distinct variants therefore lower to
// distinct PISA table names (no shared compile verdicts), while one variant
// rendered twice is byte-identical.
func variantSpec(idx int, tminBps, tmaxBps float64, v int) (string, error) {
	src, err := experiments.ChainSpec(idx, tminBps, tmaxBps, 0)
	if err != nil {
		return "", err
	}
	suffix := "_v" + strconv.Itoa(v)
	src = strings.Replace(src, fmt.Sprintf("chain chain%d {", idx), fmt.Sprintf("chain chain%d%s {", idx, suffix), 1)
	src = strings.Replace(src, fmt.Sprintf("src = 10.%d.0.0/16", idx), fmt.Sprintf("src = 10.%d.%d.0/24", idx, v%256), 1)
	for _, m := range instanceDecl.FindAllStringSubmatch(src, -1) {
		name := m[1]
		src = regexp.MustCompile(`\b`+name+`\b`).ReplaceAllString(src, name+suffix)
	}
	return src, nil
}

// placementText canonically renders a placement's deterministic outputs:
// verdict, every node's platform and device, subgroup cores and the LP
// rates at full precision.
func placementText(b *strings.Builder, in *placer.Input, res *placer.Result) {
	fmt.Fprintf(b, "feasible=%v stages=%d", res.Feasible, res.Stages)
	if !res.Feasible {
		fmt.Fprintf(b, " reason=%q", res.Reason)
		return
	}
	for ci, g := range in.Chains {
		if res.IsRetired(ci) {
			continue
		}
		for _, n := range g.Order {
			a := res.Assign[n]
			fmt.Fprintf(b, " %d/%s@%v:%s", ci, n.Name(), a.Platform, a.Device)
		}
	}
	for _, sg := range res.Subgroups {
		fmt.Fprintf(b, " sg=%s/%s/%d", sg.Name(), sg.Server, sg.Cores)
	}
	b.WriteString(" rates=")
	writeFloats(b, res.ChainRates)
}

func writeFloats(b *strings.Builder, xs []float64) {
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	}
}

// opRand is op i's private random stream: the same (seed, stream, i)
// always draws the same numbers, independent of what other ops drew.
func opRand(seed int64, stream, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7_919_011 + int64(i)))
}

// blockPerm returns the seeded order in which block b visits n strata.
func blockPerm(seed int64, stream, b, n int) []int {
	return opRand(seed, stream+1000, b).Perm(n)
}

// meets reports whether a model rate satisfies t_min (with a relative
// tolerance for the LP's floating-point rates).
func meets(rate, tmin float64) bool { return rate >= tmin*(1-1e-9) }
