package proclet

import (
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestThreadCancelOrderIsSpawnOrder suspends six equal computations of
// one proclet mid-flight and resumes them elsewhere. Their remainders
// tie, so the order the threads finish in is the order their compute
// was canceled and resubmitted. It must be spawn order on every fresh
// kernel: a suspension that walks the outstanding compute in map order
// lets the host's random map iteration into the simulation.
func TestThreadCancelOrderIsSpawnOrder(t *testing.T) {
	cases := []struct {
		name    string
		suspend func(t *testing.T, p *sim.Proc, rt *Runtime, pr *Proclet)
	}{
		{"migrate", func(t *testing.T, p *sim.Proc, rt *Runtime, pr *Proclet) {
			if err := rt.Migrate(p, pr.ID(), 1); err != nil {
				t.Errorf("Migrate: %v", err)
			}
		}},
		// The machine crash retires the tasks in its own (finish point,
		// submission) order before the runtime orphans the proclet.
		{"crash-restore", func(t *testing.T, p *sim.Proc, rt *Runtime, pr *Proclet) {
			crash(rt.Cluster, rt, 0)
			if err := rt.Restore(p, pr, 1); err != nil {
				t.Errorf("Restore: %v", err)
			}
		}},
		// A false confirmation orphans the proclet on a live machine, so
		// the runtime itself cancels the tasks.
		{"depose-restore", func(t *testing.T, p *sim.Proc, rt *Runtime, pr *Proclet) {
			if err := rt.Depose(pr); err != nil {
				t.Errorf("Depose: %v", err)
			}
			if err := rt.Restore(p, pr, 1); err != nil {
				t.Errorf("Restore: %v", err)
			}
		}},
	}
	const threads, runs = 6, 50
	want := make([]int, threads)
	for i := range want {
		want[i] = i
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for run := 0; run < runs; run++ {
				k, _, rt := testEnv(t, 2)
				pr, err := rt.Spawn("worker", 0, 64<<10)
				if err != nil {
					t.Fatal(err)
				}
				var order []int
				for i := 0; i < threads; i++ {
					pr.SpawnThread("loop", func(th *Thread) {
						th.Compute(20 * time.Millisecond)
						order = append(order, i)
					})
				}
				k.Spawn("ctl", func(p *sim.Proc) {
					p.Sleep(5 * time.Millisecond)
					tc.suspend(t, p, rt, pr)
				})
				k.Run()
				k.Close()
				if !slices.Equal(order, want) {
					t.Fatalf("run %d: completion order %v, want spawn order %v", run, order, want)
				}
			}
		})
	}
}

// TestThreadComputeAllocationFree checks that a warm Compute round trip
// (submit, completion event, wake) allocates nothing: the thread owns
// its task storage and the proclet's outstanding-task list keeps its
// capacity.
func TestThreadComputeAllocationFree(t *testing.T) {
	k, _, rt := testEnv(t, 1)
	pr, err := rt.Spawn("compute", 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	const d = 10 * time.Microsecond
	stop := false
	computes := 0
	pr.SpawnThread("loop", func(th *Thread) {
		for !stop {
			th.Compute(d)
			computes++
		}
	})
	k.RunUntil(sim.Time(d)) // start the thread and grow the queues
	before := computes
	const rounds = 100
	allocs := testing.AllocsPerRun(rounds, func() { k.RunUntil(k.Now().Add(d)) })
	if allocs != 0 {
		t.Errorf("Compute round trip allocates %v times, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call before the measured ones.
	if got := computes - before; got != rounds+1 {
		t.Errorf("%d computes in %d round trips, want one per round trip", got, rounds+1)
	}
	stop = true
	k.Run()
	k.Close()
}
