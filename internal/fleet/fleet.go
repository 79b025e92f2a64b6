// Package fleet builds the partitioned simulated fleet and checks that
// it is deterministic at any host worker count.
//
// A Fleet is one sim.ParKernel, one core.System per shard, and the
// simnet.Partition that stitches the shards' fabrics into one network.
// ext-scale, ext-serve and the scenario engine all run on it. Sweep is
// the determinism check they share: it runs the same seed at several
// worker counts P and fails unless every run returns the same
// simulated result.
package fleet

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Fleet is a partitioned fleet: shard s runs Sys[s] on K.Shard(s), and
// Net carries cross-shard RPCs between the shards' fabrics.
type Fleet struct {
	K   *sim.ParKernel
	Sys []*core.System
	Net *simnet.Partition
}

// New builds a fleet of shards shards, each holding the given machines,
// advanced by workers host goroutines. The kernel's lookahead is the
// default network latency, and shard s's system is seeded seed+s. The
// systems are built but not started, so callers can enable tracing or
// attach monitors before Start. K.Close releases the kernel's workers.
func New(seed int64, shards int, machines []cluster.MachineConfig, workers int) *Fleet {
	lookahead := sim.Time(core.DefaultConfig().Net.Latency.Nanoseconds())
	pk := sim.NewParKernel(seed, shards, lookahead)
	pk.SetWorkers(workers)
	f := &Fleet{K: pk, Sys: make([]*core.System, shards)}
	fabrics := make([]*simnet.Fabric, shards)
	for s := range f.Sys {
		cfg := core.DefaultConfig()
		cfg.Seed = seed + int64(s)
		f.Sys[s] = core.NewSystemOnKernel(pk.Shard(s), cfg, machines)
		fabrics[s] = f.Sys[s].Cluster.Fabric
	}
	f.Net = simnet.NewPartition(pk, fabrics)
	return f
}

// PlaceStores creates stores 0..n-1 of shard s (see PlaceStore).
func (f *Fleet) PlaceStores(s, n int) ([]*core.MemoryProclet, error) {
	stores := make([]*core.MemoryProclet, n)
	for i := range stores {
		mp, err := f.PlaceStore(s, i)
		if err != nil {
			return nil, err
		}
		stores[i] = mp
	}
	return stores, nil
}

// PlaceStore creates store i of shard s: a memory proclet named
// s<s>-store-<i> on machine 1 + i%(m-1) of the shard's m machines, so
// stores go round-robin over machines 1..m-1 and machine 0 stays the
// shard's front end. Callers that must act on each store before the
// next one exists (the scenario engine replicates it) place them one
// at a time.
func (f *Fleet) PlaceStore(s, i int) (*core.MemoryProclet, error) {
	sys := f.Sys[s]
	m := sys.Cluster.NumMachines()
	name := fmt.Sprintf("s%d-store-%d", s, i)
	mp, err := core.NewMemoryProcletOn(sys, name, cluster.MachineID(1+i%(m-1)))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return mp, nil
}

// Trace returns the shards' control-plane traces merged in time order,
// one rendered line per event (nil when no shard traced anything).
func (f *Fleet) Trace() []string {
	logs := make([]*trace.Log, len(f.Sys))
	for s, sys := range f.Sys {
		logs[s] = sys.Trace
	}
	var lines []string
	for _, e := range trace.Merge(logs...).Events() {
		lines = append(lines, e.String())
	}
	return lines
}

// Sweep calls run once per worker count, in order, and returns the
// first result with each call's host wall time in milliseconds. It
// fails, naming both worker counts, as soon as a result is not
// reflect.DeepEqual to the first. A result must hold only simulated
// data: anything host-dependent in it would fail the sweep.
func Sweep[T any](workers []int, run func(p int) (T, error)) (T, []float64, error) {
	var first, zero T
	wallMS := make([]float64, len(workers))
	for i, p := range workers {
		start := time.Now()
		got, err := run(p)
		wallMS[i] = float64(time.Since(start).Microseconds()) / 1000
		switch {
		case err != nil:
			return zero, nil, err
		case i == 0:
			first = got
		case !reflect.DeepEqual(got, first):
			return zero, nil, fmt.Errorf("determinism violated: P=%d diverged from P=%d", p, workers[0])
		}
	}
	return first, wallMS, nil
}
