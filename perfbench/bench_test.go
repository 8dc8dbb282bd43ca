package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// opKey renders a generated op's inputs for comparison.
func opKey(x any) string {
	switch r := x.(type) {
	case deployReq:
		return r.spec
	case reconReq:
		return r.kind + string(r.doc) + r.fail
	case simReq:
		c := r.cfg
		return fmt.Sprintf("%s %v load=%g seed=%d scale=%g dur=%g flows=%d", r.class, r.tmins, r.load, c.Seed, c.Scale, c.DurationSec, c.FlowScale)
	}
	return fmt.Sprintf("%T", x)
}

func opKeys(t *testing.T, name string, seed int64, n int) []string {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < n; i++ {
		keys = append(keys, opKey(w.gen(i)))
	}
	return keys
}

func TestSeedsDetermineOps(t *testing.T) {
	for _, name := range []string{"deploy", "sim", "reconcile"} {
		a, b, c := opKeys(t, name, 1, 60), opKeys(t, name, 1, 60), opKeys(t, name, 2, 60)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: seed 1 generated two different op sequences", name)
		}
		if strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: seeds 1 and 2 generated the same op sequence", name)
		}
	}
}

// report runs a workload briefly and returns its report lines and result.
func report(t *testing.T, name string, seed int64, traced bool) ([]string, map[string]any) {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, name, seed, 0.2, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", name, err)
	}
	if res["correct"] != true || res["failed"] != 0.0 {
		t.Fatalf("%s: correct=%v failed=%v\n%s", name, res["correct"], res["failed"], out.String())
	}
	return lines, res
}

// modelLines keeps the report lines a fixed seed must reproduce exactly.
func modelLines(lines []string) string {
	var keep []string
	for _, l := range lines {
		for _, prefix := range []string{"model_digest", "metric fail_frac", "metric model_", "metric sim_drop", "metric sim_p99"} {
			if strings.HasPrefix(l, prefix) {
				keep = append(keep, l)
			}
		}
	}
	return strings.Join(keep, "\n")
}

type benchmarkMetric struct{ Name, Unit, Better string }

type benchmarkFile struct {
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

func TestBenchmarkFileMatchesMetricLists(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file []benchmarkMetric
		code []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(c.file), len(c.code))
		}
		for i, m := range c.file {
			if d := c.code[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("BENCHMARK.json metric %d is %v, the benchmark's is %v", i, m, d)
			}
		}
	}
}

func TestRunsAreDeterministicAndComplete(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(name string, res map[string]any, want []benchmarkMetric) {
		t.Helper()
		got := res["metrics"].(map[string]any)
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", name, len(got), len(want))
		}
		for _, m := range want {
			v, ok := got[m.Name].(map[string]any)
			if !ok {
				t.Errorf("%s: metric %s missing", name, m.Name)
				continue
			}
			if v["unit"] != m.Unit {
				t.Errorf("%s: metric %s has unit %v, want %s", name, m.Name, v["unit"], m.Unit)
			}
		}
	}
	for _, name := range []string{"deploy", "sim", "reconcile"} {
		first, res := report(t, name, 3, false)
		check(name, res, bf.EndToEnd)
		again, _ := report(t, name, 3, false)
		if a, b := modelLines(first), modelLines(again); a != b || a == "" {
			t.Errorf("%s: seed 3 reproduced different model outputs:\n%s\n---\n%s", name, a, b)
		}
		other, _ := report(t, name, 4, false)
		if digest(first) == digest(other) {
			t.Errorf("%s: seeds 3 and 4 produced the same model digest", name)
		}
		_, traced := report(t, name, 3, true)
		check(name+" traced", traced, bf.PerLayer)
	}
}

func digest(lines []string) string {
	for _, l := range lines {
		if strings.HasPrefix(l, "model_digest") {
			return l
		}
	}
	return ""
}
