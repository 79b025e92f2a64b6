package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fleet"
)

const smoke = `name: smoke
horizon_ms: 4
fleet:
  shards: 2
  machines: 3
workload:
  stores: 2
  objects: 48
  write_frac: 0.2
  tenants:
    - name: web
      rate: 60000
assertions:
  - metric: lost
    op: ==
    value: 0
  - metric: generated
    op: ">"
    value: 100
`

func mustRun(t *testing.T, src string, opt Options) *Outcome {
	t.Helper()
	sp, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunSmokeDeterministic runs the same scenario three times — twice
// at one worker, once at four — and requires byte-identical reports:
// the DSL's central contract is that a (scenario, seed) pair names one
// exact execution regardless of parallelism.
func TestRunSmokeDeterministic(t *testing.T) {
	sweepReports(t, smoke, []int{1, 1, 4})
}

// sweepReports runs src once per worker count and fails unless every
// assertion holds and every report is byte-identical.
func sweepReports(t *testing.T, src string, workers []int) {
	t.Helper()
	_, _, err := fleet.Sweep(workers, func(par int) (string, error) {
		out := mustRun(t, src, Options{Par: par})
		if !out.Pass {
			return "", fmt.Errorf("par=%d: assertions failed:\n%+v", par, out.Asserts)
		}
		var rep strings.Builder
		out.WriteReport(&rep)
		return rep.String(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSeedChangesOutcome(t *testing.T) {
	a := mustRun(t, smoke, Options{Seed: 1})
	b := mustRun(t, smoke, Options{Seed: 2})
	if a.Seed != 1 || b.Seed != 2 {
		t.Fatalf("seeds = %d, %d", a.Seed, b.Seed)
	}
	if a.Metrics["generated"] == b.Metrics["generated"] &&
		a.Metrics["p99_ms"] == b.Metrics["p99_ms"] {
		t.Error("seeds 1 and 2 produced identical arrivals and tail; seed is not reaching the run")
	}
}

// TestFailingAssertionReported: an unsatisfiable bound must flip the
// outcome to fail and carry the observed value in the result row.
func TestFailingAssertionReported(t *testing.T) {
	src := strings.Replace(smoke, "    value: 100\n", "    value: 1000000000\n", 1)
	out := mustRun(t, src, Options{})
	if out.Pass {
		t.Fatal("outcome passed despite impossible generated > 1e9 bound")
	}
	var failed *AssertResult
	for i := range out.Asserts {
		if !out.Asserts[i].Pass {
			failed = &out.Asserts[i]
		}
	}
	if failed == nil {
		t.Fatal("no failing AssertResult recorded")
	}
	if failed.Metric != "generated" || failed.Got <= 0 || failed.Got >= 1e9 {
		t.Errorf("failing row = %+v, want generated with the observed count", *failed)
	}
	var rep bytes.Buffer
	out.WriteReport(&rep)
	if !strings.Contains(rep.String(), "assert FAIL: generated > 1000000000") {
		t.Errorf("report missing FAIL line:\n%s", rep.String())
	}
	if !strings.Contains(rep.String(), "RESULT FAIL") {
		t.Errorf("report missing RESULT FAIL summary:\n%s", rep.String())
	}
}

// TestCrashWithoutRebuildLosesData: at rf=1 with no rebuilder and no
// restart, a crashed store's objects must be reported lost — the
// verifier is real, not cosmetic.
func TestCrashWithoutRebuildLosesData(t *testing.T) {
	src := `name: lossy
horizon_ms: 6
fleet:
  machines: 3
workload:
  stores: 2
  objects: 32
  write_frac: 0.2
  tenants:
    - name: web
      rate: 40000
events:
  - at_ms: 2
    kind: crash
    machine: 1
`
	out := mustRun(t, src, Options{})
	if out.Metrics["lost"] == 0 {
		t.Error("crashed rf=1 store with no rebuild reported zero loss")
	}
	if out.Metrics["crashes"] != 1 {
		t.Errorf("crashes = %g, want 1", out.Metrics["crashes"])
	}
}

// TestRebuildRecoversData is the converse: the same crash with the
// rebuild fallback enabled must end with nothing lost.
func TestRebuildRecoversData(t *testing.T) {
	src := `name: rebuilt
horizon_ms: 8
fleet:
  machines: 3
workload:
  stores: 2
  rebuild: true
  objects: 32
  write_frac: 0.2
  tenants:
    - name: web
      rate: 40000
events:
  - at_ms: 2
    kind: crash
    machine: 1
  - at_ms: 4
    kind: restart
    machine: 1
`
	out := mustRun(t, src, Options{})
	if out.Metrics["lost"] != 0 {
		t.Errorf("lost = %g with rebuild enabled, want 0", out.Metrics["lost"])
	}
	if out.Metrics["recoveries"] < 1 {
		t.Errorf("recoveries = %g, want >= 1", out.Metrics["recoveries"])
	}
}

func TestWriteJSONShape(t *testing.T) {
	out := mustRun(t, smoke, Options{})
	var buf bytes.Buffer
	if err := out.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Scenario   string             `json:"scenario"`
		Seed       int64              `json:"seed"`
		Pass       bool               `json:"pass"`
		Metrics    map[string]float64 `json:"metrics"`
		Assertions []AssertResult     `json:"assertions"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Scenario != "smoke" || !doc.Pass || len(doc.Assertions) != 2 {
		t.Errorf("unexpected JSON report: %+v", doc)
	}
	for _, name := range MetricNames {
		if _, ok := doc.Metrics[name]; !ok {
			t.Errorf("JSON metrics missing %q", name)
		}
	}
}

func TestOptionsSeedZeroUsesSpecSeed(t *testing.T) {
	src := strings.Replace(smoke, "name: smoke\n", "name: smoke\nseed: 7\n", 1)
	out := mustRun(t, src, Options{})
	if out.Seed != 7 {
		t.Errorf("seed = %d, want committed spec seed 7", out.Seed)
	}
}

// gpuTrain is a scenario with a GPU training rider: two checkpointed
// trainers on identical devices, one of which dies fatally mid-run.
const gpuTrain = `name: gpu-train
horizon_ms: 40
fleet:
  machines: 3
  gpus:
    - count: 2
      mem_mb: 256
      class: a100
workload:
  stores: 2
  objects: 32
  write_frac: 0.2
  tenants:
    - name: web
      rate: 20000
  trainers:
    count: 2
    model_mb: 64
    step_us: 500
    batch_kb: 64
    checkpoint_kb: 128
    snapshot_every: 16
events:
  - at_ms: 10
    kind: gpu_xid
    machine: 1
    gpu: 0
`

// TestGPUXidCheckpointRestore: a fatal device error mid-run must be
// absorbed by a checkpoint re-placement with zero acknowledged steps
// lost — the scenario-level restatement of the gpu package's core
// robustness guarantee.
func TestGPUXidCheckpointRestore(t *testing.T) {
	out := mustRun(t, gpuTrain, Options{})
	m := out.Metrics
	if m["gpu_xids"] != 1 {
		t.Errorf("gpu_xids = %g, want 1", m["gpu_xids"])
	}
	if m["gpu_restores"] != 1 {
		t.Errorf("gpu_restores = %g, want 1", m["gpu_restores"])
	}
	if m["lost_steps"] != 0 {
		t.Errorf("lost_steps = %g, want 0 (checkpointing is on)", m["lost_steps"])
	}
	// Full-model snapshots every 16th step dominate the step budget, so
	// the bound is well under the no-snapshot ideal (~80 steps/trainer).
	if m["trainer_steps"] < 50 {
		t.Errorf("trainer_steps = %g, want >= 50 (training must keep moving)", m["trainer_steps"])
	}
	if m["checkpoints"] < m["trainer_steps"] {
		t.Errorf("checkpoints = %g < trainer_steps = %g; every acked step must be mirrored",
			m["checkpoints"], m["trainer_steps"])
	}
	if m["lost"] != 0 {
		t.Errorf("serving lost = %g, want 0", m["lost"])
	}
}

// TestGPUStragglerMitigated: a thermal throttle on one device must trip
// the straggler detector and re-dispatch the victim to a faster spare.
func TestGPUStragglerMitigated(t *testing.T) {
	src := strings.Replace(gpuTrain,
		`  - at_ms: 10
    kind: gpu_xid
    machine: 1
    gpu: 0
`,
		`  - at_ms: 10
    kind: gpu_throttle
    machine: 1
    gpu: 0
    factor: 4
`, 1)
	out := mustRun(t, src, Options{})
	m := out.Metrics
	if m["gpu_throttles"] != 1 {
		t.Errorf("gpu_throttles = %g, want 1", m["gpu_throttles"])
	}
	if m["gpu_mitigations"] < 1 {
		t.Errorf("gpu_mitigations = %g, want >= 1 (straggler must be re-dispatched)", m["gpu_mitigations"])
	}
	if m["lost_steps"] != 0 {
		t.Errorf("lost_steps = %g, want 0", m["lost_steps"])
	}
}

// TestGPUUncheckpointedXidLosesWork: the same fatal error without a
// checkpoint mirror must restart training from step zero and report
// every acknowledged step lost.
func TestGPUUncheckpointedXidLosesWork(t *testing.T) {
	src := strings.Replace(gpuTrain, "    checkpoint_kb: 128\n    snapshot_every: 16\n", "", 1)
	out := mustRun(t, src, Options{})
	m := out.Metrics
	if m["gpu_restores"] != 1 {
		t.Errorf("gpu_restores = %g, want 1", m["gpu_restores"])
	}
	if m["lost_steps"] < 1 {
		t.Errorf("lost_steps = %g, want >= 1 without checkpoints", m["lost_steps"])
	}
	if m["checkpoints"] != 0 {
		t.Errorf("checkpoints = %g, want 0", m["checkpoints"])
	}
}

// TestGPUTrainDeterministic: the GPU rider must preserve the DSL's
// byte-identical-reports contract across worker counts.
func TestGPUTrainDeterministic(t *testing.T) {
	sweepReports(t, gpuTrain, []int{1, 4})
}
