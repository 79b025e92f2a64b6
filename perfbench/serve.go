package main

// serve: the sharded store serving open-loop load (Quicksand §3, the
// ext-serve experiment). About 2.5 million clients, modelled as three
// aggregate arrival processes, read from memory proclets on a fleet of
// 8 shards x 125 machines run by the partitioned kernel. It is the only
// workload that exercises the parallel kernel's windows, barrier and
// mailboxes, simnet.Partition, load, metrics and obs/slo.

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

const (
	serveShards     = 8
	servePerShard   = 125 // machines per shard: 1,000 in the fleet
	serveStores     = 16  // memory proclets per shard
	serveObjs       = 2048
	serveObjBytes   = 256
	serveServers    = 8 // server processes per shard
	serveBatchMax   = 64
	servePoll       = 20 * time.Microsecond
	serveCrossEvery = 8 // every Nth batch reads a neighbour shard's gateway
	serveDeadline   = time.Millisecond
	serveHorizon    = sim.Time(40 * time.Millisecond)
	serveSlack      = sim.Time(20 * time.Millisecond)
	serveInjWindows = 125 // injector batch window, in lookahead windows
	serveMigrate    = 4   // stores each shard migrates in the migrate phase
)

// Tenants: clients x per-client rate gives each aggregate arrival rate.
var serveTenants = []struct {
	name    string
	clients float64
	perRPS  float64
	keys    uint64
	theta   float64
	spike   bool // rides the flash-crowd multiplier
}{
	{"A", 1_200_000, 1.5, 10_000_000, 0.99, false},
	{"B", 800_000, 1.2, 5_000_000, 0.90, false},
	{"C", 500_000, 1.0, 2_000_000, 0.75, true},
}

// servePhases split the horizon at these fractions; a request belongs
// to the phase its arrival falls in.
var servePhases = []struct {
	name string
	end  float64
}{{"diurnal", 0.40}, {"flash", 0.70}, {"migrate", 1.0}}

type serveShard struct {
	sys   *core.System
	st    []*core.MemoryProclet
	inj   *load.Injector
	mon   *slo.Monitor
	queue []load.Request
	qhead int

	hist   *metrics.LogHistogram   // request latency, whole horizon
	phases []*metrics.LogHistogram // request latency by arrival phase

	arrivals, served, errors, timeouts uint64
	records, observes                  uint64
	gbCalls, gbKeys, gbErrs            uint64
	gbLat                              []int64
	xCalls, xErrs                      uint64
	xLat                               []int64
	done                               bool
	preloadErr                         error
}

type serve struct {
	pk     *sim.ParKernel
	pt     *simnet.Partition
	shards []*serveShard
	start  sim.Time // injection start: the instant preload finished
	tr     *Tracer
}

func newServe(seed int64, workers int) (runner, error) {
	lookahead := sim.Time(core.DefaultConfig().Net.Latency.Nanoseconds())
	w := &serve{pk: sim.NewParKernel(seed*1_000_003+37, serveShards, lookahead)}
	w.pk.SetWorkers(workers)

	machines := make([]cluster.MachineConfig, servePerShard)
	for i := range machines {
		machines[i] = cluster.MachineConfig{Cores: 4, MemBytes: 64 << 20}
	}
	fabrics := make([]*simnet.Fabric, serveShards)
	for s := range fabrics {
		cfg := core.DefaultConfig()
		cfg.Seed = seed*1_000_003 + 101 + int64(s)
		sh := &serveShard{
			sys:  core.NewSystemOnKernel(w.pk.Shard(s), cfg, machines),
			hist: metrics.NewLogHistogram(fmt.Sprintf("s%d.lat", s)),
		}
		for _, ph := range servePhases {
			sh.phases = append(sh.phases, metrics.NewLogHistogram(fmt.Sprintf("s%d.lat.%s", s, ph.name)))
		}
		sh.mon = slo.New(slo.Config{
			Window:  sim.Time(500 * time.Microsecond),
			Windows: 4,
			Rules: []slo.Rule{
				{Kind: slo.P999Above, BoundMS: 3 * float64(serveDeadline) / 1e6, For: 2, Severity: "page"},
				{Kind: slo.ErrorRateAbove, Ceiling: 0.20, For: 2},
			},
			Subject: fmt.Sprintf("s%d", s),
			Machine: -1,
		})
		sh.mon.Log = sh.sys.Trace
		w.shards = append(w.shards, sh)
		fabrics[s] = sh.sys.Cluster.Fabric
	}
	w.pt = simnet.NewPartition(w.pk, fabrics)

	// Stores round-robin over machines 1..N-1; machine 0 is the shard's
	// front end (servers and the cross-shard gateway).
	for s, sh := range w.shards {
		for i := 0; i < serveStores; i++ {
			mp, err := core.NewMemoryProcletOn(sh.sys, fmt.Sprintf("s%d-store-%d", s, i),
				cluster.MachineID(1+i%(servePerShard-1)))
			if err != nil {
				w.close()
				return nil, err
			}
			sh.st = append(sh.st, mp)
		}
		served := &sh.served
		sh.sys.Cluster.Node(0).HandleFast("xget", func(simnet.Message) (simnet.Message, error) {
			return simnet.Message{Payload: int64(*served), Bytes: 64}, nil
		})
	}

	// Preload every store, then let the kernel drain: set-up ends at the
	// virtual instant the data is in place.
	for s, sh := range w.shards {
		sh := sh
		w.pk.Shard(s).Spawn(fmt.Sprintf("s%d-preload", s), func(p *sim.Proc) {
			ids := make([]uint64, serveObjs)
			vals := make([]any, serveObjs)
			sizes := make([]int64, serveObjs)
			for i := range ids {
				ids[i], vals[i], sizes[i] = uint64(i), int64(i), serveObjBytes
			}
			for _, mp := range sh.st {
				if err := mp.PutBatch(p, 0, ids, vals, sizes); err != nil && sh.preloadErr == nil {
					sh.preloadErr = fmt.Errorf("serve preload: %w", err)
				}
			}
		})
	}
	w.start = w.pk.Run()
	for _, sh := range w.shards {
		if sh.preloadErr != nil {
			w.close()
			return nil, sh.preloadErr
		}
	}

	zipfs := make([]*load.Zipf, len(serveTenants))
	for i, t := range serveTenants {
		zipfs[i] = load.NewZipf(t.keys, t.theta)
	}
	horizon := w.at(1)
	for s, sh := range w.shards {
		w.startShard(s, sh, lookahead, zipfs, horizon)
	}
	return w, nil
}

// at returns the instant a fraction f of the horizon has passed.
func (w *serve) at(f float64) sim.Time { return w.start + sim.Time(f*float64(serveHorizon)) }

func (w *serve) phaseOf(t sim.Time) int {
	for i, ph := range servePhases {
		if t < w.at(ph.end) {
			return i
		}
	}
	return len(servePhases) - 1
}

// startShard wires one shard's injector, servers and migrator.
func (w *serve) startShard(s int, sh *serveShard, lookahead sim.Time, zipfs []*load.Zipf, horizon sim.Time) {
	k := w.pk.Shard(s)
	sh.sys.Start()

	sh.inj = load.NewInjector(k, time.Duration(lookahead)*serveInjWindows, func(r load.Request) {
		t0 := w.tr.Now()
		sh.queue = append(sh.queue, r)
		sh.arrivals++
		w.tr.Leaf(s, "load.handler_s", t0)
	})
	period := time.Duration(serveHorizon)
	spike := load.Spike(w.at(servePhases[0].end), period/10, period*3/20, period/10, 5)
	for ti, t := range serveTenants {
		base := load.Diurnal(t.clients*t.perRPS/serveShards, 0.3, period)
		f := base
		if t.spike {
			f = func(at sim.Time) float64 { return base(at) * spike(at) }
		}
		sh.inj.AddTenant(t.name, load.Sampled(horizon, 250*time.Microsecond, f), zipfs[ti])
	}
	sh.inj.Start(w.start, horizon)

	var wg sim.WaitGroup
	for srv := 0; srv < serveServers; srv++ {
		wg.Add(1)
		k.Spawn(fmt.Sprintf("s%d-server-%d", s, srv), func(p *sim.Proc) {
			defer wg.Done()
			w.server(p, s, sh, horizon)
		})
	}
	k.Spawn(fmt.Sprintf("s%d-migrator", s), func(p *sim.Proc) {
		p.SleepUntil(w.at(0.75))
		for i := 0; i < serveMigrate; i++ {
			from := int(sh.st[i].Location())
			to := cluster.MachineID(1 + (from+servePerShard/2-1)%(servePerShard-1))
			_ = sh.sys.Runtime.Migrate(p, sh.st[i].ID(), to) // outcome read from Runtime counters
		}
	})
	k.Spawn(fmt.Sprintf("s%d-drained", s), func(p *sim.Proc) {
		wg.Wait(p)
		sh.done = true
	})
}

// server drains the shard's arrival queue in batches: it groups a batch
// by store and issues one mem.getbatch per touched store.
func (w *serve) server(p *sim.Proc, s int, sh *serveShard, horizon sim.Time) {
	byStore := make([][]uint64, serveStores)
	failed := make([]bool, serveStores)
	batch := make([]load.Request, 0, serveBatchMax)
	for batches := 1; ; batches++ {
		for sh.qhead == len(sh.queue) {
			if p.Now() >= horizon {
				return
			}
			p.Sleep(servePoll)
		}
		n := min(len(sh.queue)-sh.qhead, serveBatchMax)
		batch = append(batch[:0], sh.queue[sh.qhead:sh.qhead+n]...)
		sh.qhead += n
		for i := range byStore {
			byStore[i] = byStore[i][:0]
		}
		for _, r := range batch {
			si := int(r.Key % serveStores)
			byStore[si] = append(byStore[si], r.Key%serveObjs)
		}
		for si, ids := range byStore {
			failed[si] = false
			if len(ids) == 0 {
				continue
			}
			t0 := p.Now()
			got, _, err := sh.st[si].GetBatch(p, 0, ids)
			sh.gbCalls++
			sh.gbKeys += uint64(len(ids))
			sh.gbLat = append(sh.gbLat, int64(p.Now()-t0))
			if err != nil || len(got) != len(ids) {
				sh.gbErrs++
				failed[si] = true
			}
		}
		now := p.Now()
		for _, r := range batch {
			if failed[r.Key%serveStores] {
				sh.errors++
				continue
			}
			lat := int64(now - r.At)
			t0 := w.tr.Now()
			sh.hist.Record(lat)
			sh.phases[w.phaseOf(r.At)].Record(lat)
			sh.records += 2
			w.tr.Leaf(s, "metrics.record_s", t0)
			sh.served++
			missed := lat > int64(serveDeadline)
			if missed {
				sh.timeouts++
			}
			// The SLO plane covers the horizon only, so a trailing
			// partial window of drain-time completions is not an outage.
			if now < horizon {
				t0 := w.tr.Now()
				sh.mon.Observe(now, lat, missed)
				sh.observes++
				w.tr.Leaf(s, "slo.observe_s", t0)
			}
		}
		if batches%serveCrossEvery == 0 {
			t0 := p.Now()
			_, err := w.pt.CallWithTimeout(p, simnet.ShardNode{Shard: s, Node: 0},
				simnet.ShardNode{Shard: (s + 1) % serveShards, Node: 0},
				"xget", simnet.Message{Bytes: 64}, serveDeadline)
			sh.xCalls++
			sh.xLat = append(sh.xLat, int64(p.Now()-t0))
			if err != nil {
				sh.xErrs++
			}
		}
	}
}

func (w *serve) run(tr *Tracer) {
	w.tr = tr
	for _, ph := range servePhases {
		end := w.at(ph.end)
		tr.Phase("sim.run_s."+ph.name, func() { w.pk.RunUntil(end) })
	}
	tr.Phase("sim.run_s.drain", func() { w.pk.RunUntil(w.at(1) + serveSlack) })
	for _, sh := range w.shards {
		sh.mon.Finish(w.at(1))
	}
	w.tr = nil
}

func (w *serve) outcome() outcome {
	d := newDigester()
	o := outcome{counts: map[string]float64{}}
	c := o.counts
	overall := metrics.NewLogHistogram("latency")
	phases := make([]*metrics.LogHistogram, len(servePhases))
	for i := range phases {
		phases[i] = metrics.NewLogHistogram("latency." + servePhases[i].name)
	}
	var events, maxEvents, arrivals, served, errors, timeouts, migMaxUS float64
	var gbLat, xLat []int64
	logs := make([]*trace.Log, len(w.shards))
	for s, sh := range w.shards {
		k := w.pk.Shard(s)
		generated := sh.inj.TotalGenerated()
		if o.err == nil {
			switch {
			case !sh.done:
				o.err = fmt.Errorf("serve: shard %d did not drain", s)
			case generated != sh.arrivals || sh.qhead != len(sh.queue):
				o.err = fmt.Errorf("serve: shard %d generated %d, delivered %d, dequeued %d",
					s, generated, sh.arrivals, sh.qhead)
			case generated != sh.served+sh.errors:
				o.err = fmt.Errorf("serve: shard %d arrivals %d != served %d + errors %d",
					s, generated, sh.served, sh.errors)
			case sh.hist.Count() != sh.served:
				o.err = fmt.Errorf("serve: shard %d histogram count %d != served %d",
					s, sh.hist.Count(), sh.served)
			}
		}
		d.add(fmt.Sprintf("shard%d", s), []any{k.EventsProcessed(), generated, sh.served,
			sh.errors, sh.timeouts, sh.gbCalls, sh.gbKeys, sh.gbErrs, sh.xCalls, sh.xErrs,
			sh.mon.Opened(), sh.mon.Resolved(), sh.mon.WindowsClosed(),
			sh.sys.Runtime.Migrations.Value()})
		overall.Merge(sh.hist)
		for i := range phases {
			phases[i].Merge(sh.phases[i])
		}
		logs[s] = sh.sys.Trace
		ev := float64(k.EventsProcessed())
		events += ev
		maxEvents = max(maxEvents, ev)
		arrivals += float64(generated)
		served += float64(sh.served)
		errors += float64(sh.errors)
		timeouts += float64(sh.timeouts)
		c["sim.workers_created"] += float64(k.WorkersCreated())
		c["metrics.records"] += float64(sh.records)
		c["slo.observes"] += float64(sh.observes)
		c["slo.windows"] += float64(sh.mon.WindowsClosed())
		c["slo.incidents"] += float64(sh.mon.Opened())
		c["core.getbatch_calls"] += float64(sh.gbCalls)
		c["core.getbatch_keys"] += float64(sh.gbKeys)
		c["core.getbatch_errors"] += float64(sh.gbErrs)
		c["simnet.cross_calls"] += float64(sh.xCalls)
		c["simnet.cross_errors"] += float64(sh.xErrs)
		c["proclet.migrations"] += float64(sh.sys.Runtime.Migrations.Value())
		if h := sh.sys.Runtime.MigrationLatency; h.Count() > 0 {
			migMaxUS = max(migMaxUS, h.Max()*1e6)
		}
		gbLat = append(gbLat, sh.gbLat...)
		xLat = append(xLat, sh.xLat...)
	}
	d.add("windows", w.pk.Windows())
	d.add("cross", w.pk.CrossMessages())
	d.add("start", w.start)
	d.add("overall", overall.Snapshot())
	for i := range phases {
		d.add(servePhases[i].name, phases[i].Snapshot())
	}
	d.add("trace", trace.Merge(logs...).String())
	o.digest = d.sum()
	o.attempted = int64(arrivals)
	o.failed = int64(errors + timeouts)

	c["sim.events"] = events
	c["sim.windows"] = float64(w.pk.Windows())
	c["sim.cross_msgs"] = float64(w.pk.CrossMessages())
	c["sim.shard_skew"] = maxEvents / (events / float64(len(w.shards)))
	c["load.arrivals"] = arrivals
	c["core.getbatch_sim_p99_us"] = float64(p99(gbLat)) / 1e3
	c["simnet.cross_sim_p99_us"] = float64(p99(xLat)) / 1e3
	c["proclet.migrate_sim_max_us"] = migMaxUS
	return o
}

func (w *serve) close() { w.pk.Close() }
