package main

// failover: replicated memory proclets riding out a crash (Quicksand
// §3, the ext-failover experiment). Closed-loop writers on machine 0
// put to RF=2 stores, which group-commit each write to an anti-affine
// backup before acking, and read back keys they were acked for. The
// heartbeat detector, lease fencing, one injected crash, promotion and
// resync all run on a single kernel. It is the only workload that runs
// replication and fault, and the one with the most blocking RPCs.

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/replication"
	"repro/internal/sim"
)

const (
	foMachines = 4 // machine 0 hosts the writers and the monitor
	foStores   = 6
	foWriters  = 24
	foOpBytes  = 4 << 10
	foThink    = 100 * time.Microsecond
	foReadEach = 4 // every 4th operation of a writer reads back an acked key
	foHorizon  = sim.Time(400 * time.Millisecond)
)

type failover struct {
	sys    *core.System
	rm     *core.ReplManager
	in     *fault.Injector
	stores []*core.MemoryProclet
	golden []map[uint64]int

	crashM           cluster.MachineID
	crashAt, restart sim.Time
	firstAck         []sim.Time // per store: first ack at or after the crash

	puts, putErrs, gets, getErrs, lost int64
	putLat                             []int64
	done                               bool
}

func newFailover(seed int64, _ int) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	machines := make([]cluster.MachineConfig, foMachines)
	for i := range machines {
		machines[i] = cluster.MachineConfig{Cores: 8, MemBytes: 512 << 20}
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed*1_000_003 + 17
	w := &failover{
		sys:      core.NewSystem(cfg, machines),
		golden:   make([]map[uint64]int, foStores),
		firstAck: make([]sim.Time, foStores),
		// The crash hits one store machine, at a seed-chosen instant
		// around 30% of the horizon; it restarts at 70%.
		crashM:  cluster.MachineID(1 + rng.Intn(foMachines-1)),
		crashAt: sim.Time(float64(foHorizon) * (0.25 + 0.1*rng.Float64())),
		restart: sim.Time(float64(foHorizon) * 0.70),
	}
	w.sys.Start()
	w.in = fault.New(w.sys.K, w.sys.Cluster, w.sys.Trace)
	w.sys.AttachInjector(w.in)
	w.rm = w.sys.EnableReplicationPlane(replication.Config{}, 0)
	for i := 0; i < foStores; i++ {
		w.golden[i] = make(map[uint64]int)
		mp, err := core.NewMemoryProcletOn(w.sys, fmt.Sprintf("fstore-%d", i), cluster.MachineID(1+i%(foMachines-1)))
		if err == nil {
			err = w.rm.Replicate(mp, 2)
		}
		if err != nil {
			w.close()
			return nil, err
		}
		w.stores = append(w.stores, mp)
	}
	w.in.Install(fault.Schedule{
		{At: w.crashAt, Op: fault.OpCrash, A: w.crashM},
		{At: w.restart, Op: fault.OpRestart, A: w.crashM},
	})

	var wg sim.WaitGroup
	for c := 0; c < foWriters; c++ {
		wg.Add(1)
		wrng := rand.New(rand.NewSource(seed*1_000_003 + 1000 + int64(c)))
		w.sys.K.Spawn(fmt.Sprintf("writer-%d", c), func(p *sim.Proc) {
			defer wg.Done()
			w.writer(p, c, wrng)
		})
	}
	w.sys.K.Spawn("verifier", func(p *sim.Proc) {
		wg.Wait(p)
		// Every acked write must read back after the run.
		for i, mp := range w.stores {
			keys := make([]uint64, 0, len(w.golden[i]))
			for k := range w.golden[i] {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			for _, k := range keys {
				w.get(p, mp, k, w.golden[i][k])
			}
		}
		w.done = true
		w.sys.K.Stop()
	})
	return w, nil
}

// writer puts fresh keys round-robin over the stores and, every
// foReadEach operations, reads back one of its own acked keys.
func (w *failover) writer(p *sim.Proc, c int, rng *rand.Rand) {
	type ackedKey struct {
		store int
		key   uint64
	}
	var acked []ackedKey
	for op := 0; p.Now() < foHorizon; op++ {
		if op%foReadEach == foReadEach-1 && len(acked) > 0 {
			a := acked[rng.Intn(len(acked))]
			w.get(p, w.stores[a.store], a.key, w.golden[a.store][a.key])
		} else {
			idx := (c + op) % foStores
			key := uint64(c)<<32 | uint64(op)
			val := c*1_000_003 + op
			t0 := p.Now()
			err := w.stores[idx].Put(p, 0, key, val, foOpBytes)
			now := p.Now()
			w.puts++
			w.putLat = append(w.putLat, int64(now-t0))
			if err != nil {
				w.putErrs++
			} else {
				w.golden[idx][key] = val
				acked = append(acked, ackedKey{idx, key})
				if now >= w.crashAt && w.firstAck[idx] == 0 {
					w.firstAck[idx] = now
				}
			}
		}
		p.Sleep(foThink)
	}
}

// get reads one acked key; an error counts against the get, a wrong or
// missing value as lost acked data.
func (w *failover) get(p *sim.Proc, mp *core.MemoryProclet, key uint64, want int) {
	w.gets++
	v, err := mp.Get(p, 0, key)
	switch {
	case err != nil:
		w.getErrs++
	case v.(int) != want:
		w.lost++
	}
}

func (w *failover) run(tr *Tracer) {
	k := w.sys.K
	tr.Phase("sim.run_s.steady", func() { k.RunUntil(w.crashAt) })
	tr.Phase("sim.run_s.outage", func() { k.RunUntil(w.restart) })
	tr.Phase("sim.run_s.recovered", func() { k.RunUntil(foHorizon) })
	tr.Phase("sim.run_s.verify", func() { k.Run() })
}

func (w *failover) outcome() outcome {
	d := newDigester()
	o := outcome{counts: map[string]float64{}}
	var failoverNS sim.Time
	for i, mp := range w.stores {
		d.add(fmt.Sprintf("store%d", i), []any{len(w.golden[i]), mp.NumObjects(), mp.Location(), w.firstAck[i]})
		// A store whose primary sat on the crashed machine fails over;
		// its first post-crash ack bounds the failover.
		if i%(foMachines-1)+1 == int(w.crashM) {
			at := w.firstAck[i]
			if at == 0 {
				at = foHorizon
			}
			failoverNS = max(failoverNS, at-w.crashAt)
		}
	}
	status := w.rm.Status()
	d.add("status", status)
	d.add("counts", []int64{w.puts, w.putErrs, w.gets, w.getErrs, w.lost})
	d.add("events", w.sys.K.EventsProcessed())
	d.add("repl", []int64{w.rm.Promotions.Value(), w.rm.Resyncs.Value(), w.rm.Deposes.Value(), w.rm.ReplRecords.Value()})
	d.add("trace", w.sys.Trace.String())
	o.digest = d.sum()
	o.attempted = w.puts + w.gets
	o.failed = w.putErrs + w.getErrs + w.lost

	switch {
	case !w.done:
		o.err = fmt.Errorf("failover: verification did not finish")
	case w.lost != 0:
		o.err = fmt.Errorf("failover: %d acked keys lost at RF=2", w.lost)
	case w.getErrs != 0:
		o.err = fmt.Errorf("failover: %d reads of acked keys failed", w.getErrs)
	case w.rm.Detector().State(w.crashM) != replication.StateAlive:
		o.err = fmt.Errorf("failover: crashed machine %d not alive after restart", w.crashM)
	}
	for _, st := range status {
		if o.err == nil && (len(st.Backups) != 1 || st.PrimaryMachine == st.Backups[0].Machine) {
			o.err = fmt.Errorf("failover: set %s did not return to RF=2 with an anti-affine backup", st.Name)
		}
	}

	c := o.counts
	c["sim.events"] = float64(w.sys.K.EventsProcessed())
	c["sim.shard_skew"] = 1
	c["sim.workers_created"] = float64(w.sys.K.WorkersCreated())
	c["core.put_calls"] = float64(w.puts)
	c["core.put_errors"] = float64(w.putErrs)
	c["core.get_calls"] = float64(w.gets)
	c["core.get_errors"] = float64(w.getErrs)
	c["core.put_sim_p99_us"] = float64(p99(w.putLat)) / 1e3
	c["replication.promotions"] = float64(w.rm.Promotions.Value())
	c["replication.resyncs"] = float64(w.rm.Resyncs.Value())
	c["replication.failover_sim_ms"] = float64(failoverNS) / 1e6
	c["fault.crashes"] = float64(w.in.Crashes.Value())
	c["proclet.migrations"] = float64(w.sys.Runtime.Migrations.Value())
	return o
}

func (w *failover) close() { w.sys.Close() }
