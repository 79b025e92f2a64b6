package fleet

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

func machines(n int) []cluster.MachineConfig {
	ms := make([]cluster.MachineConfig, n)
	for i := range ms {
		ms[i] = cluster.MachineConfig{Cores: 4, MemBytes: 64 << 20}
	}
	return ms
}

// TestSweepFailsWhenResultDependsOnP: the determinism check can fire.
// A run whose result leaks the worker count must fail the sweep, and
// the error must name both worker counts.
func TestSweepFailsWhenResultDependsOnP(t *testing.T) {
	type result struct{ Events []int }
	calls := 0
	_, wall, err := Sweep([]int{1, 4, 8}, func(p int) (result, error) {
		calls++
		return result{Events: []int{10, 10 + p/4}}, nil
	})
	if err == nil {
		t.Fatal("sweep accepted results that depend on P")
	}
	if !strings.Contains(err.Error(), "P=4") || !strings.Contains(err.Error(), "P=1") {
		t.Errorf("error %q does not name P=4 and P=1", err)
	}
	if calls != 2 {
		t.Errorf("run called %d times, want 2: the sweep must stop at the first divergence", calls)
	}
	if wall != nil {
		t.Errorf("wall = %v on failure, want nil", wall)
	}
}

// TestSweepIdenticalResults: equal results return the first one and one
// wall-time entry per worker count, in sweep order.
func TestSweepIdenticalResults(t *testing.T) {
	var firstLines []string
	workers := []int{1, 1, 4, 8}
	got, wall, err := Sweep(workers, func(p int) ([]string, error) {
		lines := []string{"a", "b"}
		if firstLines == nil {
			firstLines = lines
		}
		return lines, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || &got[0] != &firstLines[0] {
		t.Errorf("Sweep returned %v, want the first run's result", got)
	}
	if len(wall) != len(workers) {
		t.Fatalf("%d wall entries for %d worker counts", len(wall), len(workers))
	}
	for i, w := range wall {
		if w < 0 {
			t.Errorf("wall[%d] = %v, want >= 0", i, w)
		}
	}
}

// TestSweepPassesRunErrors: a failing run ends the sweep with its error.
func TestSweepPassesRunErrors(t *testing.T) {
	boom := errors.New("boom")
	_, _, err := Sweep([]int{1, 4}, func(p int) (int, error) {
		if p == 4 {
			return 0, boom
		}
		return 1, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestNewSeedsShards: shard s's system is seeded seed+s on the shard's
// own kernel, the kernel runs at the requested worker count with the
// default network latency as lookahead, and the partition spans every
// shard.
func TestNewSeedsShards(t *testing.T) {
	const seed, shards = 41, 3
	f := New(seed, shards, machines(3), 2)
	defer f.K.Close()
	if len(f.Sys) != shards || f.K.NumShards() != shards || f.Net.NumShards() != shards {
		t.Fatalf("shards: %d systems, %d kernels, %d fabrics; want %d each",
			len(f.Sys), f.K.NumShards(), f.Net.NumShards(), shards)
	}
	if f.K.Workers() != 2 {
		t.Errorf("workers = %d, want 2", f.K.Workers())
	}
	if want := sim.Time(core.DefaultConfig().Net.Latency); f.K.Lookahead() != want {
		t.Errorf("lookahead = %v, want the default net latency %v", f.K.Lookahead(), want)
	}
	for s, sys := range f.Sys {
		if got := sys.Config().Seed; got != seed+int64(s) {
			t.Errorf("shard %d seed = %d, want %d", s, got, seed+int64(s))
		}
		if sys.K != f.K.Shard(s) {
			t.Errorf("shard %d system runs on another kernel", s)
		}
		if sys.Cluster.NumMachines() != 3 {
			t.Errorf("shard %d has %d machines, want 3", s, sys.Cluster.NumMachines())
		}
	}
}

// TestPlaceStores: store i of shard s is s<s>-store-<i> on machine
// 1 + i%(m-1), so machine 0 never hosts a store, and the placements
// show in the merged trace.
func TestPlaceStores(t *testing.T) {
	f := New(1, 2, machines(4), 1)
	defer f.K.Close()
	f.Sys[1].Start()
	stores, err := f.PlaceStores(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantMachine := []cluster.MachineID{1, 2, 3, 1, 2}
	for i, mp := range stores {
		if name, want := mp.Proclet().Name(), fmt.Sprintf("s1-store-%d", i); name != want {
			t.Errorf("store %d name = %q, want %q", i, name, want)
		}
		if mp.Location() != wantMachine[i] {
			t.Errorf("store %d on machine %d, want %d", i, mp.Location(), wantMachine[i])
		}
	}
	if tr := strings.Join(f.Trace(), "\n"); !strings.Contains(tr, "s1-store-4") {
		t.Errorf("merged trace does not show the placement of s1-store-4:\n%s", tr)
	}
}
