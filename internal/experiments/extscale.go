package experiments

// ext-scale: a partitioned fleet two orders of magnitude beyond the
// other experiments. Every other experiment drives a handful of
// machines on one sequential kernel; this one shards a 1,000-machine
// fleet (8 shards x 125 machines at full scale) across a
// sim.ParKernel, with per-shard Quicksand systems stitched together by
// a simnet.Partition for cross-shard RPC. The workload mixes
// shard-local store traffic with cross-shard gateway reads, and shard
// 0 additionally rides out a crash/restart of one of its machines
// (granular re-placement plus rebuild, as in ext-chaos — now inside a
// partitioned run).
//
// The experiment is its own determinism harness: fleet.Sweep executes
// the same seed at worker counts P in {1, 4, 8} and errors out unless
// every deterministic observable — per-shard event counts, per-shard op and
// error counts, window and cross-message totals, and the merged
// control-plane trace — is identical across P. The CI seed sweep runs
// this experiment at several seeds, so the sweep is automatically a
// seed x P matrix.
//
// Wall-clock per worker count is reported under Values keys prefixed
// "wall_". Host time is the one observable that legitimately varies
// run to run (and cannot show parallel speedup at all on a single-core
// host), so those keys never appear in Lines (which the seed sweep
// byte-compares) and benchdiff excludes the "wall_" prefix from its
// regression gate.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// scaleCfg parameterizes the partitioned fleet.
type scaleCfg struct {
	shards     int
	perShard   int // machines per shard
	stores     int // memory proclets per shard, machines 1..perShard-1
	clients    int // closed-loop drivers per shard, machine 0
	opBytes    int64
	crossEvery int // every Nth op also performs a cross-shard gateway read
	sample     int // verify every Nth acked key on the crash shard
	horizon    sim.Time
	slack      sim.Time // drain window after the horizon
	workers    []int    // host worker counts to sweep
}

func scaleConfig(scale Scale) scaleCfg {
	const MiB = 1 << 20
	cfg := scaleCfg{
		shards:     8,
		perShard:   3,
		stores:     4,
		clients:    2,
		opBytes:    1 << 10,
		crossEvery: 4,
		sample:     4,
		horizon:    sim.Time(8 * time.Millisecond),
		slack:      sim.Time(8 * time.Millisecond),
		workers:    []int{1, 4, 8},
	}
	if scale == FullScale {
		cfg.perShard = 125 // 8 x 125 = 1,000 machines
		cfg.stores = 16
		cfg.clients = 4
		cfg.crossEvery = 8
		cfg.horizon = sim.Time(20 * time.Millisecond)
		cfg.slack = sim.Time(20 * time.Millisecond)
	}
	return cfg
}

// scaleRun is one run's observables, all of them simulated:
// fleet.Sweep requires them to be identical at every worker count.
type scaleRun struct {
	ShardEvents []uint64
	Ops         []int64
	Failed      []int64
	CrossOps    []int64
	CrossFailed []int64
	Lost        int64
	Crashes     int64
	Recoveries  int64
	Windows     uint64
	CrossMsgs   uint64
	Trace       []string
}

// run builds the partitioned fleet and drives it with the given number
// of host workers.
func (cfg scaleCfg) run(workers int) (scaleRun, error) {
	machines := make([]cluster.MachineConfig, cfg.perShard)
	for i := range machines {
		machines[i] = cluster.MachineConfig{Cores: 4, MemBytes: 64 << 20}
	}
	fl := fleet.New(seeded(29), cfg.shards, machines, workers)
	defer fl.K.Close()

	type shardState struct {
		stores []*core.MemoryProclet
		golden []map[uint64]int
		latest int64 // last acked value, served by the xget gateway
		done   bool
	}
	shards := make([]*shardState, cfg.shards)
	for s, sys := range fl.Sys {
		sys.Start()
		stores, err := fl.PlaceStores(s, cfg.stores)
		if err != nil {
			return scaleRun{}, err
		}
		st := &shardState{stores: stores, golden: make([]map[uint64]int, cfg.stores)}
		for i := range st.golden {
			st.golden[i] = make(map[uint64]int)
		}
		shards[s] = st
		// Rebuild crash-lost store contents from the shard's host-side
		// golden record (shard-local: written and read only in shard
		// context).
		sys.SetRebuilder(func(p *sim.Proc, mp *core.MemoryProclet) error {
			for i, sp := range st.stores {
				if sp.ID() != mp.ID() {
					continue
				}
				keys := make([]uint64, 0, len(st.golden[i]))
				for k := range st.golden[i] {
					keys = append(keys, k)
				}
				sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
				ids := make([]uint64, len(keys))
				vals := make([]any, len(keys))
				sizes := make([]int64, len(keys))
				for j, k := range keys {
					ids[j], vals[j], sizes[j] = k, st.golden[i][k], cfg.opBytes
				}
				return mp.PutBatch(p, 0, ids, vals, sizes)
			}
			return nil
		})
		// The cross-shard gateway: machine 0 serves the shard's last
		// acked value to peers, on the inline fast path.
		sys.Cluster.Node(0).HandleFast("xget", func(req simnet.Message) (simnet.Message, error) {
			return simnet.Message{Payload: st.latest, Bytes: 128}, nil
		})
	}

	// Shard 0 loses machine 1 mid-run and gets it back: orphaned stores
	// re-place, the rebuilder restores their contents.
	in := fault.New(fl.K.Shard(0), fl.Sys[0].Cluster, fl.Sys[0].Trace)
	fl.Sys[0].AttachInjector(in)
	in.Install(fault.Schedule{
		{At: sim.Time(float64(cfg.horizon) * 0.35), Op: fault.OpCrash, A: 1},
		{At: sim.Time(float64(cfg.horizon) * 0.65), Op: fault.OpRestart, A: 1},
	})

	det := scaleRun{
		ShardEvents: make([]uint64, cfg.shards),
		Ops:         make([]int64, cfg.shards),
		Failed:      make([]int64, cfg.shards),
		CrossOps:    make([]int64, cfg.shards),
		CrossFailed: make([]int64, cfg.shards),
	}
	for s, st := range shards {
		k := fl.K.Shard(s)
		var wg sim.WaitGroup
		for c := 0; c < cfg.clients; c++ {
			wg.Add(1)
			k.Spawn(fmt.Sprintf("s%d-client-%d", s, c), func(p *sim.Proc) {
				defer wg.Done()
				for op := 0; p.Now() < cfg.horizon; op++ {
					idx := (c + op) % cfg.stores
					key := uint64(c)<<32 | uint64(op)
					val := c*1_000_003 + op
					if err := st.stores[idx].Put(p, 0, key, val, cfg.opBytes); err == nil {
						st.golden[idx][key] = val
						st.latest = int64(val)
						det.Ops[s]++
					} else {
						det.Failed[s]++
					}
					if op%cfg.crossEvery == 0 {
						_, err := fl.Net.Call(p, simnet.ShardNode{Shard: s, Node: 0},
							simnet.ShardNode{Shard: (s + 1) % cfg.shards, Node: 0},
							"xget", simnet.Message{Bytes: 64})
						if err == nil {
							det.CrossOps[s]++
						} else {
							det.CrossFailed[s]++
						}
					}
				}
			})
		}
		k.Spawn(fmt.Sprintf("s%d-verify", s), func(p *sim.Proc) {
			wg.Wait(p)
			if s == 0 {
				// Sampled read-back on the crash shard: acked writes must
				// have survived the crash via re-placement + rebuild.
				for i, mp := range st.stores {
					keys := make([]uint64, 0, len(st.golden[i]))
					for k := range st.golden[i] {
						keys = append(keys, k)
					}
					sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
					for j := 0; j < len(keys); j += cfg.sample {
						v, err := mp.Get(p, 0, keys[j])
						if err != nil || v.(int) != st.golden[i][keys[j]] {
							det.Lost++
						}
					}
				}
			}
			st.done = true
		})
	}

	fl.K.RunUntil(cfg.horizon + cfg.slack)

	for s, st := range shards {
		if !st.done {
			return det, fmt.Errorf("shard %d did not drain by %v (workload wedged)", s, cfg.horizon+cfg.slack)
		}
		det.ShardEvents[s] = fl.K.Shard(s).EventsProcessed()
	}
	det.Crashes = in.Crashes.Value()
	det.Recoveries = fl.Sys[0].Sched.Recoveries.Value()
	det.Windows = fl.K.Windows()
	det.CrossMsgs = uint64(fl.Net.CrossCalls.Value())
	det.Trace = fl.Trace()
	return det, nil
}

func runExtScale(scale Scale) (*Result, error) {
	cfg := scaleConfig(scale)
	res := newResult("ext-scale", "extension: 1,000-machine partitioned fleet, deterministic at any worker count")
	res.addf("fleet: %d shards x %d machines = %d machines; %d stores + %d clients per shard",
		cfg.shards, cfg.perShard, cfg.shards*cfg.perShard, cfg.stores, cfg.clients)
	res.addf("faults: shard 0 crashes machine 1 at %v, restarts it at %v",
		sim.Time(float64(cfg.horizon)*0.35), sim.Time(float64(cfg.horizon)*0.65))

	ref, wallMS, err := fleet.Sweep(cfg.workers, cfg.run)
	if err != nil {
		return nil, fmt.Errorf("ext-scale: %w", err)
	}
	res.EventsProcessed = uint64(len(cfg.workers)) * sumU64(ref.ShardEvents)
	res.Trace = ref.Trace

	var ops, failed, crossOps, crossFailed int64
	for s := 0; s < cfg.shards; s++ {
		ops += ref.Ops[s]
		failed += ref.Failed[s]
		crossOps += ref.CrossOps[s]
		crossFailed += ref.CrossFailed[s]
	}
	res.addf("ops acked %d (failed %d), cross-shard reads %d (failed %d), objects lost %d",
		ops, failed, crossOps, crossFailed, ref.Lost)
	res.addf("crashes %d, orphans re-placed %d; %d sync windows, %d cross-shard RPCs",
		ref.Crashes, ref.Recoveries, ref.Windows, ref.CrossMsgs)
	res.addf("determinism: per-shard events %v identical at P=%v (asserted in-run)",
		ref.ShardEvents, cfg.workers)
	res.addf("wall-clock per worker count is host time: see the wall_* keys in the")
	res.addf("JSON output (excluded from byte-compared output and the benchdiff gate).")

	res.set("machines", float64(cfg.shards*cfg.perShard))
	res.set("shards", float64(cfg.shards))
	res.set("ops", float64(ops))
	res.set("failed", float64(failed))
	res.set("cross_ops", float64(crossOps))
	res.set("cross_failed", float64(crossFailed))
	res.set("lost", float64(ref.Lost))
	res.set("crashes", float64(ref.Crashes))
	res.set("recoveries", float64(ref.Recoveries))
	res.set("windows", float64(ref.Windows))
	res.set("cross_msgs", float64(ref.CrossMsgs))
	res.set("events", float64(sumU64(ref.ShardEvents)))
	res.setWall(cfg.workers, wallMS)
	return res, nil
}

func sumU64(xs []uint64) uint64 {
	var n uint64
	for _, x := range xs {
		n += x
	}
	return n
}
