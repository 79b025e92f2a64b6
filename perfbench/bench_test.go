package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// runOnce builds and runs a workload untraced and returns its outcome.
func runOnce(t *testing.T, name string, seed int64, workers int) outcome {
	t.Helper()
	w, err := workloads[name](seed, workers)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	defer w.close()
	w.run(nil)
	o := w.outcome()
	if o.err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, o.err)
	}
	return o
}

func TestServeDigestSameAtP1AndP2(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full serve workload twice")
	}
	p1 := runOnce(t, "serve", committedSeed, 1)
	p2 := runOnce(t, "serve", committedSeed, 2)
	if p1.digest != p2.digest {
		t.Fatalf("serve digest at P=1 %s, at P=2 %s", p1.digest, p2.digest)
	}
	if !reflect.DeepEqual(p1.counts, p2.counts) {
		t.Fatalf("serve counts differ: P=1 %v, P=2 %v", p1.counts, p2.counts)
	}
	if p1.digest != committedDigest["serve"] {
		t.Fatalf("serve digest %s, committed %s", p1.digest, committedDigest["serve"])
	}
}

func TestTracedServeMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full serve workload traced")
	}
	w, err := newServe(committedSeed, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	tr := NewTracer(serveShards)
	w.run(tr)
	o := w.outcome()
	if o.err != nil || o.digest != committedDigest["serve"] {
		t.Fatalf("traced serve: err %v, digest %s, committed %s", o.err, o.digest, committedDigest["serve"])
	}
	self := SelfTimes(tr.Spans())
	for _, name := range []string{"sim.run_s.diurnal", "sim.run_s.drain", "load.handler_s", "metrics.record_s", "slo.observe_s"} {
		if self[name] <= 0 {
			t.Errorf("no self time recorded for %s: %v", name, self)
		}
	}
}

func TestSeedChangesDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at two seeds")
	}
	for name := range workloads {
		a := runOnce(t, name, committedSeed, 2)
		b := runOnce(t, name, committedSeed+1, 2)
		if a.digest == b.digest {
			t.Errorf("%s: seeds %d and %d give the same digest %s", name, committedSeed, committedSeed+1, a.digest)
		}
		if a.digest != committedDigest[name] {
			t.Errorf("%s: digest %s, committed %s", name, a.digest, committedDigest[name])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// phase [0,100) with leaves [10,30), [20,50) (overlapping: parallel
	// shards), [60,70) and [95,120) (runs past the parent's end); a
	// second phase [200,210) with no children.
	spans := []Span{
		{ID: 1, Name: "phase", Start: 0, End: 100},
		{ID: 2, Name: "idle", Start: 200, End: 210},
		{ID: 1<<32 | 1, Parent: 1, Name: "leaf", Start: 10, End: 30},
		{ID: 2<<32 | 1, Parent: 1, Name: "leaf", Start: 20, End: 50},
		{ID: 1<<32 | 2, Parent: 1, Name: "other", Start: 60, End: 70},
		{ID: 1<<32 | 3, Parent: 1, Name: "other", Start: 95, End: 120},
	}
	got := SelfTimes(spans)
	want := map[string]int64{
		"phase": 100 - (40 + 10 + 5), // union of children clipped to [0,100)
		"idle":  10,
		"leaf":  20 + 30,
		"other": 10 + 25,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelfTimes = %v, want %v", got, want)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *Tracer
	ran := false
	tr.Phase("p", func() { ran = true })
	tr.Leaf(0, "x", tr.Now())
	if !ran {
		t.Fatal("nil tracer did not run the phase")
	}
	live := NewTracer(2)
	live.Phase("p", func() { live.Leaf(1, "x", live.Now()) })
	spans := live.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID {
		t.Fatalf("spans = %+v, want a phase and its child", spans)
	}
}

func TestAttribute(t *testing.T) {
	samples := []Sample{
		// Channel handoff below the kernel's resume counts as sim.
		{Stack: []string{"runtime.chansend1", "repro/internal/sim.(*Kernel).resumeAndWait",
			"repro/internal/sim.(*Kernel).Step", "main.main"}, Weight: 40},
		// Map iteration below the scheduler's demand scan counts as core.
		{Stack: []string{"runtime.mapiternext", "repro/internal/core.(*Scheduler).demandOn",
			"repro/internal/sim.(*Kernel).Step"}, Weight: 20},
		// obs/slo belongs to obs; a closure keeps its package.
		{Stack: []string{"repro/internal/obs/slo.(*Monitor).Observe", "main.(*serve).server"}, Weight: 10},
		{Stack: []string{"repro/internal/simnet.(*Partition).CallWithTimeout.func1"}, Weight: 5},
		// Internal packages without a layer of their own count as other.
		{Stack: []string{"repro/internal/trace.(*Log).Emitf", "repro/internal/core.(*System).Start"}, Weight: 5},
		// No repro frame: gc when the collector is on the stack, else other.
		{Stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, Weight: 15},
		{Stack: []string{"runtime.futex", "runtime.schedule", "runtime.mcall"}, Weight: 5},
	}
	w := Attribute(samples)
	want := map[string]int64{"sim": 40, "core": 20, "obs": 10, "simnet": 5, "other": 10, "gc": 15}
	if !reflect.DeepEqual(w, want) {
		t.Fatalf("Attribute = %v, want %v", w, want)
	}
	shares := Shares(w)
	var sum float64
	for _, m := range modules {
		f, ok := shares[m]
		if !ok {
			t.Fatalf("module %s missing from shares", m)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 || shares["sim"] != 0.4 {
		t.Fatalf("shares = %v (sum %v)", shares, sum)
	}
}

// protobuf helpers for building a minimal profile by hand.
func pbVarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func pbField(b []byte, num int, body []byte) []byte {
	b = pbVarint(b, uint64(num)<<3|2)
	b = pbVarint(b, uint64(len(body)))
	return append(b, body...)
}

func pbInt(b []byte, num int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(num)<<3), v)
}

func TestParseProfile(t *testing.T) {
	var p []byte
	// string table: "", "leaf", "root"
	for _, s := range []string{"", "repro/internal/sim.leaf", "main.root"} {
		p = pbField(p, 6, []byte(s))
	}
	// functions 1 -> "leaf", 2 -> "root"
	p = pbField(p, 5, pbInt(pbInt(nil, 1, 1), 2, 1))
	p = pbField(p, 5, pbInt(pbInt(nil, 1, 2), 2, 2))
	// location 10 holds function 1 inlined into function 2; location 11 holds function 2
	line := func(fn uint64) []byte { return pbInt(nil, 1, fn) }
	p = pbField(p, 4, pbField(pbField(pbInt(nil, 1, 10), 4, line(1)), 4, line(2)))
	p = pbField(p, 4, pbField(pbInt(nil, 1, 11), 4, line(2)))
	// sample with packed locations [10, 11] and packed values [3, 30000000]
	packed := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = pbVarint(b, v)
		}
		return b
	}
	p = pbField(p, 2, pbField(pbField(nil, 1, packed(10, 11)), 2, packed(3, 30000000)))
	// sample with unpacked fields
	p = pbField(p, 2, pbInt(pbInt(pbInt(nil, 1, 11), 2, 1), 2, 10000000))

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()
	got, err := ParseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []Sample{
		{Stack: []string{"repro/internal/sim.leaf", "main.root", "main.root"}, Weight: 30000000},
		{Stack: []string{"main.root"}, Weight: 10000000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseProfile = %+v, want %+v", got, want)
	}
	if _, err := ParseProfile([]byte("not gzip")); err == nil {
		t.Fatal("ParseProfile accepted garbage")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the benchmark
// prints in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, declared []struct{ Name, Unit string }) {
		if len(defs) != len(declared) {
			t.Fatalf("%s: benchmark reports %d metrics, BENCHMARK.json declares %d", kind, len(defs), len(declared))
		}
		for i, d := range defs {
			if d.name != declared[i].Name || d.unit != declared[i].Unit {
				t.Errorf("%s[%d]: benchmark %s (%s), BENCHMARK.json %s (%s)",
					kind, i, d.name, d.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not in the benchmark", w.Name)
		}
	}
}
