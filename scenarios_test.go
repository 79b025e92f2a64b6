package quicksand

// Library gate for scenarios/: every committed scenario file must (a)
// parse, (b) pass its own assertions at its committed seed, and (c)
// print a byte-identical report at 1, 4, and 8 host workers
// (fleet.Sweep over the report text). This is the in-repo mirror of
// the CI scenario-matrix job, so a scenario that regresses fails
// `go test ./...` before it ever reaches CI.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/scenario"
)

const scenarioDir = "scenarios"

func TestScenarioLibrary(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(scenarioDir, "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("scenario library has %d files, want >= 10", len(files))
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := scenario.Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, _, err = fleet.Sweep([]int{1, 4, 8}, func(par int) (string, error) {
				out, err := scenario.Run(sp, scenario.Options{Par: par})
				if err != nil {
					return "", fmt.Errorf("par=%d: %w", par, err)
				}
				if !out.Pass {
					for _, a := range out.Asserts {
						if !a.Pass {
							t.Errorf("par=%d: assert FAIL: %s %s %g (got %g)",
								par, a.Metric, a.Op, a.Bound, a.Got)
						}
					}
					return "", fmt.Errorf("par=%d: committed-seed assertions failed", par)
				}
				var rep strings.Builder
				out.WriteReport(&rep)
				return rep.String(), nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
