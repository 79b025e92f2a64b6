package main

// harvest: compute proclets chasing idle CPU (Quicksand Fig. 1 and the
// ext-harvest experiment, scaled up). Every machine runs a
// high-priority antagonist busy two thirds of each period, staggered so
// a rotating third of the fleet is idle; a pool of compute proclets
// sized to that idle third follows it by scheduler-driven migration.
// It is the only workload dominated by processor-sharing settles and
// compute tasks, with no replication, no partitioned kernel and little
// memory traffic.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	hvMachines = 12
	hvCores    = 8
	hvPeriod   = 24 * time.Millisecond
	hvJitter   = time.Millisecond
	hvUnit     = 50 * time.Microsecond // mean task length; lengths are uniform in [unit/2, 3unit/2)
	hvWarmup   = sim.Time(120 * time.Millisecond)
	hvHorizon  = sim.Time(1200 * time.Millisecond)
)

type harvest struct {
	sys  *core.System
	pool *core.Pool
	ants []*workload.Antagonist
	rng  *rand.Rand

	submitted, tasks int64
	workNS           int64 // simulated CPU time of completed tasks
	done             bool
}

func newHarvest(seed int64, _ int) (runner, error) {
	machines := make([]cluster.MachineConfig, hvMachines)
	for i := range machines {
		machines[i] = cluster.MachineConfig{Cores: hvCores, MemBytes: 16 << 30}
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed*1_000_003 + 53
	w := &harvest{
		sys: core.NewSystem(cfg, machines),
		rng: rand.New(rand.NewSource(seed*1_000_003 + 59)),
	}
	for i, m := range w.sys.Cluster.Machines() {
		a := &workload.Antagonist{
			Machine: m, Period: hvPeriod, Busy: hvPeriod * 2 / 3,
			Offset: time.Duration(i%3) * hvPeriod / 3, Cores: hvCores,
			Jitter: hvJitter, Rng: rand.New(rand.NewSource(seed*1_000_003 + 61 + int64(i))),
		}
		a.Start(w.sys.K)
		w.ants = append(w.ants, a)
	}
	w.sys.Start()
	members := hvMachines / 3 * hvCores
	pool, err := w.sys.NewPool("filler", 1, members, 1, members)
	if err != nil {
		w.close()
		return nil, err
	}
	w.pool = pool
	for _, m := range pool.Members() {
		w.feed(m)
		w.feed(m)
	}
	w.sys.K.Spawn("drain", func(p *sim.Proc) {
		p.SleepUntil(hvHorizon)
		for _, a := range w.ants {
			a.Stop()
		}
		w.pool.WaitIdle(p)
		w.done = true
		w.sys.K.Stop()
	})
	return w, nil
}

// feed queues one task of seeded length on cp; each completed task
// queues the next until the horizon.
func (w *harvest) feed(cp *core.ComputeProclet) {
	d := hvUnit/2 + time.Duration(w.rng.Int63n(int64(hvUnit)))
	w.submitted++
	cp.Run(func(tc *core.TaskCtx) {
		tc.Compute(d)
		w.tasks++
		w.workNS += int64(d)
		if tc.Proc().Now() < hvHorizon {
			w.feed(tc.ComputeProclet())
		}
	})
}

func (w *harvest) run(tr *Tracer) {
	k := w.sys.K
	tr.Phase("sim.run_s.warmup", func() { k.RunUntil(hvWarmup) })
	tr.Phase("sim.run_s.harvest", func() { k.RunUntil(hvHorizon) })
	tr.Phase("sim.run_s.drain", func() { k.Run() })
}

func (w *harvest) outcome() outcome {
	d := newDigester()
	o := outcome{counts: map[string]float64{}}
	var coreS float64
	for _, m := range w.sys.Cluster.Machines() {
		coreS += m.CoreSeconds
		d.add(m.Name, m.CoreSeconds)
	}
	executed := w.pool.TotalExecuted()
	migrations := w.sys.Runtime.Migrations.Value()
	d.add("tasks", []int64{w.submitted, w.tasks, w.workNS, executed, int64(w.pool.Size())})
	d.add("migrations", migrations)
	d.add("events", w.sys.K.EventsProcessed())
	d.add("trace", w.sys.Trace.String())
	o.digest = d.sum()
	o.attempted = w.submitted
	o.failed = w.submitted - w.tasks

	// The virtual clock ticks in whole nanoseconds, so a task can be
	// served up to 1 ns past its length when it completes, and its
	// remainder rounds up by under 1 ns each time a migration cancels
	// and resubmits it. Beyond that, machine CPU time must equal the
	// work of the completed tasks.
	work := float64(w.workNS) / 1e9
	slack := float64(w.tasks+migrations)*1e-9 + 1e-9*work
	switch {
	case !w.done:
		o.err = fmt.Errorf("harvest: pool did not drain")
	case w.tasks != w.submitted || executed != w.tasks:
		o.err = fmt.Errorf("harvest: %d tasks submitted, %d completed, pool executed %d",
			w.submitted, w.tasks, executed)
	case coreS < work-1e-9*work || coreS > work+slack:
		o.err = fmt.Errorf("harvest: machines did %.9f core-seconds for %.9f s of completed tasks",
			coreS, work)
	}

	c := o.counts
	c["sim.events"] = float64(w.sys.K.EventsProcessed())
	c["sim.shard_skew"] = 1
	c["sim.workers_created"] = float64(w.sys.K.WorkersCreated())
	c["cluster.core_s"] = coreS
	c["cluster.tasks"] = float64(w.tasks)
	c["core.pool_executed"] = float64(executed)
	c["proclet.migrations"] = float64(migrations)
	if h := w.sys.Runtime.MigrationLatency; h.Count() > 0 {
		c["proclet.migrate_sim_max_us"] = h.Max() * 1e6
	}
	return o
}

func (w *harvest) close() { w.sys.Close() }
