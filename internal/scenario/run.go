package scenario

// The scenario engine: compile a validated Spec onto a fleet.Fleet
// (the partitioned simulation kernel, one core.System per shard) and
// drive it to completion. Each fleet shard gets its own store
// proclets, open-loop load.Injector and load.Queue, fault injector,
// and server pool — the same shapes as the hand-coded
// internal/experiments drivers, but assembled from data.
//
// Determinism contract: a run at a fixed seed produces byte-identical
// reports at any host worker count. Everything in Outcome is derived
// from kernel-ordered integers (counts, histogram buckets, virtual
// timestamps); golden records are only walked via sorted keys; shard
// results merge in fixed shard order; wall-clock never appears.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/obs/slo"
	"repro/internal/proclet"
	"repro/internal/replication"
	"repro/internal/sim"
)

// Options are the per-invocation knobs that do not change the
// scenario's identity: which seed to run and how many host workers to
// use. Neither may leak into the report (Seed is echoed deliberately;
// Par must not be).
type Options struct {
	Seed int64 // 0 → the spec's committed seed
	Par  int   // host worker count; <=0 → 1

	// KeepWindows retains every closed SLO window per shard in
	// Outcome.SLOHistory — the data behind qsctl top. Off by default;
	// it is O(windows) memory.
	KeepWindows bool
}

// AssertResult is one evaluated assertion.
type AssertResult struct {
	Metric string  `json:"metric"`
	Op     string  `json:"op"`
	Bound  float64 `json:"bound"`
	Got    float64 `json:"got"`
	Pass   bool    `json:"pass"`
}

// Outcome is everything a finished run produced: the full metric set,
// the merged latency histogram, per-assertion verdicts, and the merged
// control-plane trace.
type Outcome struct {
	Spec    *Spec
	Seed    int64
	Metrics map[string]float64
	Hist    *metrics.LogHistogram
	Asserts []AssertResult
	Pass    bool
	Trace   []string

	// SLO plane results: incidents in shard order, the merged flight
	// recorder timeline (always populated — it backs failure dumps),
	// and per-shard window history when Options.KeepWindows is set.
	Incidents     []slo.Incident
	Flight        []slo.FlightEntry
	FlightDropped int
	SLOHistory    [][]slo.WindowStat
}

// injWindows sizes the injector batch window in lookahead units, as in
// the ext-serve experiment (125 x 2us lookahead = 250us windows).
const injWindows = 125

// verifyChunk bounds ids per read-back GetBatch during verification.
const verifyChunk = 64

// serverPoll is the server idle-queue poll interval.
const serverPoll = 20 * time.Microsecond

// mst converts scenario milliseconds to virtual time.
func mst(ms float64) sim.Time { return sim.Time(ms * 1e6) }

// msd converts scenario milliseconds to a duration.
func msd(ms float64) time.Duration { return time.Duration(ms * 1e6) }

// writeVal is the value stored under an object id — a pure function of
// the id, so replays, rebuilds, and verification all agree without
// coordination.
func writeVal(id uint64) int64 { return int64(id ^ 0x9e3779b97f4a7c15) }

// shardState is one shard's mutable run state. Written only in shard
// context (procs on that shard's kernel), read host-side after the run.
type shardState struct {
	sys      *core.System
	rm       *core.ReplManager
	in       *fault.Injector
	stores   []*core.MemoryProclet
	golden   []map[uint64]struct{}
	inj      *load.Injector
	fleet    *gpu.Fleet
	trainers []*gpu.Proclet

	queue load.Queue

	served   uint64
	timeouts uint64
	errs     uint64
	acked    uint64
	lost     int64
	migOK    int64
	startNS  int64
	hist     *metrics.LogHistogram
	good     []int64 // goodput buckets: on-deadline completions by completion time
	done     bool

	mon    *slo.Monitor        // nil unless the spec declares an slo block
	flight *slo.FlightRecorder // always on: backs failure dumps
}

// Run executes the scenario and evaluates its assertions. The returned
// error covers run-level failures (a wedged shard); assertion failures
// land in Outcome.Pass, not the error.
func Run(sp *Spec, opt Options) (*Outcome, error) {
	seed := opt.Seed
	if seed == 0 {
		seed = sp.Seed
	}
	f, w := sp.Fleet, sp.Workload
	horizon := mst(sp.HorizonMS)
	drain := mst(sp.DrainMS)
	deadline := int64(w.DeadlineUS * 1e3)
	bucketNS := int64(sp.BucketMS * 1e6)
	nBuckets := int((int64(horizon)+int64(drain))/bucketNS) + 2

	machines := make([]cluster.MachineConfig, f.Machines)
	for i := range machines {
		machines[i] = cluster.MachineConfig{Cores: float64(f.Cores), MemBytes: f.MemMB << 20}
	}
	fl := fleet.New(seed, f.Shards, machines, opt.Par) // SetWorkers clamps Par to [1, shards]
	defer fl.K.Close()
	injWindow := time.Duration(fl.K.Lookahead()) * injWindows

	// One zeta precompute per tenant serves every shard.
	zipfs := make([]*load.Zipf, len(w.Tenants))
	for i, t := range w.Tenants {
		zipfs[i] = load.NewZipf(t.Keys, t.Zipf)
	}

	// Compile the event schedule into per-shard fault schedules, spike
	// multipliers per tenant, and per-shard migration lists.
	type migration struct {
		at    sim.Time
		store int // shard-local store index
		to    int // shard-local machine
	}
	faults := make([]fault.Schedule, f.Shards)
	migs := make([][]migration, f.Shards)
	spikes := make(map[string][]func(sim.Time) float64)
	for _, ev := range sp.Events {
		at := mst(ev.AtMS)
		switch ev.Kind {
		case KindCrash, KindRestart:
			s := ev.Machine / f.Machines
			op := fault.OpCrash
			if ev.Kind == KindRestart {
				op = fault.OpRestart
			}
			faults[s] = append(faults[s], fault.Event{
				At: at, Op: op, A: cluster.MachineID(ev.Machine % f.Machines)})
		case KindPartition, KindDegrade, KindHeal:
			s := ev.A / f.Machines
			op := fault.OpPartition
			switch ev.Kind {
			case KindDegrade:
				op = fault.OpDegrade
			case KindHeal:
				op = fault.OpHeal
			}
			faults[s] = append(faults[s], fault.Event{
				At: at, Op: op,
				A:     cluster.MachineID(ev.A % f.Machines),
				B:     cluster.MachineID(ev.B % f.Machines),
				Extra: time.Duration(ev.ExtraUS * 1e3),
				Drop:  ev.Drop,
			})
		case KindSpike:
			spikes[ev.Tenant] = append(spikes[ev.Tenant],
				load.Spike(at, msd(ev.RampMS), msd(ev.HoldMS), msd(ev.DecayMS), ev.Mult))
		case KindMigrate:
			s := ev.Store / w.Stores
			migs[s] = append(migs[s], migration{
				at: at, store: ev.Store % w.Stores, to: ev.To % f.Machines})
		case KindGPUXid, KindGPUThrottle, KindGPUHeal:
			s := ev.Machine / f.Machines
			op := fault.OpGPUXid
			switch ev.Kind {
			case KindGPUThrottle:
				op = fault.OpGPUThrottle
			case KindGPUHeal:
				op = fault.OpGPUHeal
			}
			faults[s] = append(faults[s], fault.Event{
				At: at, Op: op,
				A:          cluster.MachineID(ev.Machine % f.Machines),
				Gpu:        ev.GPU,
				Xid:        ev.Xid,
				Factor:     ev.Factor,
				StallEvery: ev.StallEveryN,
				Stall:      time.Duration(ev.StallUS * 1e3),
			})
		}
	}

	shards := make([]*shardState, f.Shards)
	for s, sys := range fl.Sys {
		st := &shardState{
			sys:  sys,
			hist: metrics.NewLogHistogram(fmt.Sprintf("s%d.lat", s)),
			good: make([]int64, nBuckets),
		}
		shards[s] = st
		k := fl.K.Shard(s)
		st.sys.Start()

		// The fault plane is installed on every shard — even those with no
		// scheduled faults — so RPC timeout behavior is uniform fleet-wide.
		st.in = fault.New(k, st.sys.Cluster, st.sys.Trace)
		st.sys.AttachInjector(st.in)

		// Flight recorder: every control-plane event lands in the ring,
		// so assertion failures dump the last moments of context.
		st.flight = slo.NewFlightRecorder(64)
		st.flight.AttachLog(st.sys.Trace)

		// The streaming SLO plane, when declared: fleet-wide rate floors
		// split across shards the same way tenant rates do.
		if sp.SLO.Enabled() {
			rules := make([]slo.Rule, len(sp.SLO.Rules))
			for i, r := range sp.SLO.Rules {
				rules[i] = slo.Rule{
					Kind:     slo.RuleKind(r.Kind),
					Name:     r.Name,
					BoundMS:  r.BoundMS,
					FloorRPS: r.FloorRPS / float64(f.Shards),
					Ceiling:  r.Ceiling,
					For:      r.For,
					Severity: r.Severity,
				}
			}
			st.mon = slo.New(slo.Config{
				Window:      mst(sp.SLO.WindowMS),
				Windows:     sp.SLO.Windows,
				Rules:       rules,
				Subject:     fmt.Sprintf("s%d", s),
				Machine:     -1,
				KeepHistory: opt.KeepWindows,
			})
			st.mon.Log = st.sys.Trace
			st.mon.Flight = st.flight
		}

		// GPUs attach to every non-front-end machine; machine 0 stays a
		// pure serving front end.
		if len(f.GPUs) > 0 {
			cfgs := make([]cluster.GPUConfig, len(f.GPUs))
			for i, c := range f.GPUs {
				cfgs[i] = cluster.GPUConfig{
					Count:         c.Count,
					MemBytes:      c.MemMB << 20,
					LinkBandwidth: int64(c.LinkGBps * 1e9),
					Class:         c.Class,
					Speed:         c.Speed,
				}
			}
			for _, m := range st.sys.Cluster.Machines() {
				if m.ID != 0 {
					m.AddGPUs(cfgs...)
				}
			}
		}
		if w.RF >= 2 {
			st.rm = st.sys.EnableReplicationPlane(replication.Config{}, 0)
		}

		// Stores round-robin over machines 1..Machines-1; machine 0 is the
		// shard front end (servers + failure-detector monitor).
		st.stores = make([]*core.MemoryProclet, w.Stores)
		st.golden = make([]map[uint64]struct{}, w.Stores)
		for i := range st.stores {
			mp, err := fl.PlaceStore(s, i)
			if err != nil {
				return nil, fmt.Errorf("scenario %q: %w", sp.Name, err)
			}
			st.stores[i] = mp
			st.golden[i] = make(map[uint64]struct{}, w.Objects)
			for id := 0; id < w.Objects; id++ {
				st.golden[i][uint64(id)] = struct{}{}
			}
			if w.RF >= 2 {
				if err := st.rm.Replicate(mp, w.RF); err != nil {
					return nil, fmt.Errorf("scenario %q: replicate shard %d store %d: %w", sp.Name, s, i, err)
				}
			}
		}
		if w.RF == 1 && w.Rebuild {
			st.sys.SetRebuilder(func(p *sim.Proc, mp *core.MemoryProclet) error {
				for i, sp2 := range st.stores {
					if sp2.ID() != mp.ID() {
						continue
					}
					keys := sortedKeys(st.golden[i])
					ids := make([]uint64, len(keys))
					vals := make([]any, len(keys))
					sizes := make([]int64, len(keys))
					for j, kk := range keys {
						ids[j], vals[j], sizes[j] = kk, writeVal(kk), w.ObjectBytes
					}
					return mp.PutBatch(p, 0, ids, vals, sizes)
				}
				return nil
			})
		}
		st.in.Install(faults[s])

		// GPU training riders: a fleet manager places each trainer on the
		// best device, reacts to XIDs/reclaims/stragglers, and fault hooks
		// kick its watcher so reactions aren't quantized to the period.
		if w.Trainers.Count > 0 {
			st.fleet = gpu.NewFleetConfig(st.sys, fmt.Sprintf("s%d-trainers", s), gpu.Config{
				Checkpoint: gpu.CheckpointConfig{
					DeltaBytes:    w.Trainers.CheckpointKB << 10,
					SnapshotEvery: w.Trainers.SnapshotEvery,
					Home:          gpu.AutoHome,
				},
			})
			for ti := 0; ti < w.Trainers.Count; ti++ {
				tp, err := st.fleet.Add(fmt.Sprintf("s%d-trainer-%d", s, ti),
					w.Trainers.ModelMB<<20, time.Duration(w.Trainers.StepUS*1e3))
				if err != nil {
					return nil, fmt.Errorf("scenario %q: shard %d trainer %d: %w", sp.Name, s, ti, err)
				}
				st.trainers = append(st.trainers, tp)
			}
			fleet := st.fleet
			st.in.HookGPU = func(cluster.MachineID, int) { fleet.Kick() }
			fleet.Start()
			for ti, tp := range st.trainers {
				tp := tp
				k.Spawn(fmt.Sprintf("s%d-trainer-%d-driver", s, ti), func(p *sim.Proc) {
					for p.Now() < horizon {
						err := tp.Step(p, tp.Device().Machine.ID, w.Trainers.BatchKB<<10)
						if err == nil {
							continue
						}
						if errors.Is(err, proclet.ErrDead) {
							return
						}
						// Device lost mid-stream: park until the fleet
						// re-places the proclet, then resume stepping.
						if tp.AwaitPlaced(p) != nil {
							return
						}
					}
				})
			}
		}

		// The shard's open-loop arrival stream: each tenant's fleet rate is
		// split evenly across shards, spike events multiply onto the base
		// curve, and the whole thing is pre-sampled into a piecewise curve.
		st.inj = load.NewInjector(k, injWindow, st.queue.Push)
		for ti, t := range w.Tenants {
			per := t.Rate / float64(f.Shards)
			var base func(sim.Time) float64
			switch t.Curve {
			case "diurnal":
				base = load.Diurnal(per, t.Amp, msd(t.PeriodMS))
			case "ramp":
				base = load.Ramp(per, t.To/float64(f.Shards), msd(t.OverMS))
			default:
				base = func(sim.Time) float64 { return per }
			}
			mults := spikes[t.Name]
			rate := base
			if len(mults) > 0 {
				rate = func(at sim.Time) float64 {
					v := base(at)
					for _, m := range mults {
						v *= m(at)
					}
					return v
				}
			}
			st.inj.AddTenant(t.Name, load.Sampled(horizon, msd(w.SampleStepMS), rate), zipfs[ti])
		}

		// Preload, then start injection at a deterministic virtual instant.
		k.Spawn(fmt.Sprintf("s%d-setup", s), func(p *sim.Proc) {
			ids := make([]uint64, w.Objects)
			vals := make([]any, w.Objects)
			sizes := make([]int64, w.Objects)
			for i := range ids {
				ids[i] = uint64(i)
				vals[i] = writeVal(uint64(i))
				sizes[i] = w.ObjectBytes
			}
			for _, mp := range st.stores {
				if err := mp.PutBatch(p, 0, ids, vals, sizes); err != nil {
					panic(fmt.Sprintf("scenario preload: %v", err))
				}
			}
			st.startNS = int64(p.Now())
			st.inj.Start(p.Now(), horizon)
		})

		// Server pool: batched fan-in per store, reads via GetBatch and
		// writes via PutBatch. A request is a write iff its key falls in
		// the write fraction; writes land under scrambled keys and join the
		// golden record on ack.
		var wg sim.WaitGroup
		writeCut := uint64(w.WriteFrac * 1000)
		for srv := 0; srv < w.Servers; srv++ {
			wg.Add(1)
			k.Spawn(fmt.Sprintf("s%d-server-%d", s, srv), func(p *sim.Proc) {
				defer wg.Done()
				readIDs := make([][]uint64, w.Stores)
				writeIDs := make([][]uint64, w.Stores)
				for {
					batch, ok := st.queue.Next(p, w.BatchMax, serverPoll, horizon)
					if !ok {
						return
					}
					for i := range readIDs {
						readIDs[i] = readIDs[i][:0]
						writeIDs[i] = writeIDs[i][:0]
					}
					for _, r := range batch {
						si := int(r.Key % uint64(w.Stores))
						if r.Key%1000 < writeCut {
							writeIDs[si] = append(writeIDs[si], load.ScrambleKey(r.Key))
						} else {
							readIDs[si] = append(readIDs[si], r.Key%uint64(w.Objects))
						}
					}
					for si := range st.stores {
						if ids := readIDs[si]; len(ids) > 0 {
							if _, _, err := st.stores[si].GetBatch(p, 0, ids); err != nil {
								st.errs += uint64(len(ids))
							}
						}
						if ids := writeIDs[si]; len(ids) > 0 {
							vals := make([]any, len(ids))
							sizes := make([]int64, len(ids))
							for j, id := range ids {
								vals[j] = writeVal(id)
								sizes[j] = w.ObjectBytes
							}
							if err := st.stores[si].PutBatch(p, 0, ids, vals, sizes); err != nil {
								st.errs += uint64(len(ids))
							} else {
								for _, id := range ids {
									st.golden[si][id] = struct{}{}
								}
								st.acked += uint64(len(ids))
							}
						}
					}
					now := p.Now()
					for _, r := range batch {
						lat := int64(now - r.At)
						st.hist.Record(lat)
						// The SLO plane covers the scenario horizon:
						// completions during the drain are backlog
						// clearing, not steady-state service.
						if now < horizon {
							st.mon.Observe(now, lat, lat > deadline)
						}
						st.served++
						if lat > deadline {
							st.timeouts++
						} else {
							bi := int(int64(now) / bucketNS)
							if bi >= len(st.good) {
								bi = len(st.good) - 1
							}
							st.good[bi]++
						}
					}
				}
			})
		}

		// Timed migrations ride their own sleeper procs.
		for mi, m := range migs[s] {
			m := m
			k.Spawn(fmt.Sprintf("s%d-migrate-%d", s, mi), func(p *sim.Proc) {
				p.Sleep(time.Duration(m.at))
				if err := st.sys.Runtime.Migrate(p, st.stores[m.store].ID(), cluster.MachineID(m.to)); err == nil {
					st.migOK++
				}
			})
		}

		// Durability verification: once the servers drain, read back every
		// golden key (sorted, chunked) and count what the fleet lost.
		k.Spawn(fmt.Sprintf("s%d-verify", s), func(p *sim.Proc) {
			wg.Wait(p)
			for si, mp := range st.stores {
				keys := sortedKeys(st.golden[si])
				for off := 0; off < len(keys); off += verifyChunk {
					end := off + verifyChunk
					if end > len(keys) {
						end = len(keys)
					}
					chunk := keys[off:end]
					ids, vals, err := mp.GetBatch(p, 0, chunk)
					if err != nil {
						st.lost += int64(len(chunk))
						continue
					}
					got := make(map[uint64]int64, len(ids))
					for j, id := range ids {
						if v, ok := vals[j].(int64); ok {
							got[id] = v
						}
					}
					for _, id := range chunk {
						if v, ok := got[id]; !ok || v != writeVal(id) {
							st.lost++
						}
					}
				}
			}
			st.done = true
		})
	}

	fl.K.RunUntil(horizon + drain)

	for s, st := range shards {
		if !st.done {
			return nil, fmt.Errorf("scenario %q: shard %d did not drain by %v (%d served of %d generated) — raise drain_ms or heal the fleet before the horizon",
				sp.Name, s, horizon+drain, st.served, st.inj.TotalGenerated())
		}
	}

	return collect(sp, seed, fl, shards, bucketNS)
}

// collect folds per-shard state into the Outcome, in fixed shard order.
func collect(sp *Spec, seed int64, fl *fleet.Fleet, shards []*shardState, bucketNS int64) (*Outcome, error) {
	var generated, served, timeouts, errs, acked uint64
	var lost, migOK, crashes, restarts, partitions, degrades, heals, promotions, recoveries int64
	var gpuXids, gpuThrottles, gpuHeals, gpuRestores, gpuEvacs, gpuMitigations, gpuStranded int64
	var trainerSteps, checkpoints, lostSteps int64
	var sloWindows, sloBreaches, incOpened, incResolved, incOpen int
	var events uint64
	startNS := int64(0)
	hist := metrics.NewLogHistogram("latency")
	good := make([]int64, len(shards[0].good))
	var incidents []slo.Incident
	var sloHistory [][]slo.WindowStat
	flightSnaps := make([][]slo.FlightEntry, len(shards))
	flightDropped := 0
	horizonT := mst(sp.HorizonMS)
	for s, st := range shards {
		// Seal the SLO plane at the horizon: trailing empty windows
		// close (a tail outage still breaches), incidents still open
		// get their spans clamped.
		st.mon.Finish(horizonT)
		sloWindows += st.mon.WindowsClosed()
		sloBreaches += st.mon.Breaches()
		incOpened += st.mon.Opened()
		incResolved += st.mon.Resolved()
		incOpen += st.mon.OpenCount()
		incidents = append(incidents, st.mon.Incidents()...)
		if h := st.mon.History(); h != nil {
			sloHistory = append(sloHistory, h)
		}
		flightSnaps[s] = st.flight.Snapshot()
		flightDropped += st.flight.Dropped()
	}
	for s, st := range shards {
		generated += st.inj.TotalGenerated()
		served += st.served
		timeouts += st.timeouts
		errs += st.errs
		acked += st.acked
		lost += st.lost
		migOK += st.migOK
		crashes += st.in.Crashes.Value()
		restarts += st.in.Restarts.Value()
		partitions += st.in.Partitions.Value()
		degrades += st.in.Degrades.Value()
		heals += st.in.Heals.Value()
		if st.rm != nil {
			promotions += st.rm.Promotions.Value()
		}
		recoveries += st.sys.Sched.Recoveries.Value()
		gpuXids += st.in.GPUXids.Value()
		gpuThrottles += st.in.GPUThrottles.Value()
		gpuHeals += st.in.GPUHeals.Value()
		if st.fleet != nil {
			gpuRestores += st.fleet.Restores.Value()
			gpuEvacs += st.fleet.Evacuations.Value()
			gpuMitigations += st.fleet.Mitigations.Value()
			gpuStranded += st.fleet.Stranded.Value()
			lostSteps += st.fleet.LostSteps()
			for _, tp := range st.trainers {
				trainerSteps += tp.CompletedSteps()
				checkpoints += tp.Checkpoints.Value()
			}
		}
		if st.startNS > startNS {
			startNS = st.startNS
		}
		events += fl.K.Shard(s).EventsProcessed()
		hist.Merge(st.hist)
		for i, v := range st.good {
			good[i] += v
		}
	}

	horizon := int64(mst(sp.HorizonMS))
	durS := float64(horizon-startNS) / 1e9
	goodput := 0.0
	if durS > 0 {
		goodput = float64(served-timeouts) / durS
	}
	timeoutFrac := 0.0
	if served > 0 {
		timeoutFrac = float64(timeouts) / float64(served)
	}

	m := map[string]float64{
		"generated":    float64(generated),
		"served":       float64(served),
		"timeouts":     float64(timeouts),
		"timeout_frac": timeoutFrac,
		"errors":       float64(errs),
		"goodput_rps":  goodput,
		"p50_ms":       hist.QuantileMS(0.50),
		"p99_ms":       hist.QuantileMS(0.99),
		"p999_ms":      hist.QuantileMS(0.999),
		"max_ms":       float64(hist.Max()) / 1e6,
		"mean_ms":      hist.Mean() / 1e6,
		"acked_writes": float64(acked),
		"lost":         float64(lost),
		"crashes":      float64(crashes),
		"restarts":     float64(restarts),
		"partitions":   float64(partitions),
		"degrades":     float64(degrades),
		"heals":        float64(heals),
		"promotions":   float64(promotions),
		"recoveries":   float64(recoveries),
		"migrations":   float64(migOK),
		"recovery_ms":  recoveryMS(sp, good, bucketNS, startNS, horizon),
		"events":       float64(events),
		"windows":      float64(fl.K.Windows()),

		"gpu_xids":        float64(gpuXids),
		"gpu_throttles":   float64(gpuThrottles),
		"gpu_heals":       float64(gpuHeals),
		"gpu_restores":    float64(gpuRestores),
		"gpu_evacuations": float64(gpuEvacs),
		"gpu_mitigations": float64(gpuMitigations),
		"gpu_stranded":    float64(gpuStranded),
		"trainer_steps":   float64(trainerSteps),
		"checkpoints":     float64(checkpoints),
		"lost_steps":      float64(lostSteps),

		"slo_windows":        float64(sloWindows),
		"slo_breaches":       float64(sloBreaches),
		"incidents_opened":   float64(incOpened),
		"incidents_resolved": float64(incResolved),
		"incidents_open":     float64(incOpen),
	}

	out := &Outcome{
		Spec: sp, Seed: seed, Metrics: m, Hist: hist, Pass: true,
		Incidents:     incidents,
		Flight:        slo.MergeSnapshots(flightSnaps...),
		FlightDropped: flightDropped,
		SLOHistory:    sloHistory,
	}
	for _, a := range sp.Asserts {
		got := m[a.Metric]
		ok := evalOp(got, a.Op, a.Value)
		out.Asserts = append(out.Asserts, AssertResult{
			Metric: a.Metric, Op: a.Op, Bound: a.Value, Got: got, Pass: ok})
		if !ok {
			out.Pass = false
		}
	}
	out.Trace = fl.Trace()
	return out, nil
}

// recoveryMS measures how long after the last scheduled disturbance
// goodput regained RecoveryFrac of its pre-event baseline. 0 when the
// scenario has no events or no measurable baseline; NeverRecovered when
// no in-horizon bucket after the last event reaches the threshold.
func recoveryMS(sp *Spec, good []int64, bucketNS, startNS, horizon int64) float64 {
	if len(sp.Events) == 0 {
		return 0
	}
	firstNS := int64(mst(sp.Events[0].AtMS))
	lastEnd := int64(0)
	for _, ev := range sp.Events {
		if e := int64(mst(ev.EndMS())); e > lastEnd {
			lastEnd = e
		}
	}
	var sum int64
	var n int
	for i := range good {
		bs, be := int64(i)*bucketNS, int64(i+1)*bucketNS
		if bs >= startNS+bucketNS && be <= firstNS {
			sum += good[i]
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	threshold := sp.RecoveryFrac * float64(sum) / float64(n)
	for i := range good {
		bs, be := int64(i)*bucketNS, int64(i+1)*bucketNS
		if bs < lastEnd || be > horizon {
			continue
		}
		if float64(good[i]) >= threshold {
			return float64(bs-lastEnd) / 1e6
		}
	}
	return NeverRecovered
}

func evalOp(got float64, op string, bound float64) bool {
	switch op {
	case "==":
		return got == bound
	case "!=":
		return got != bound
	case "<":
		return got < bound
	case "<=":
		return got <= bound
	case ">":
		return got > bound
	case ">=":
		return got >= bound
	}
	return false
}

// fmtMetric renders a metric value for the human report. Counts print
// as integers; NeverRecovered prints as "never".
func fmtMetric(name string, v float64) string {
	if name == "recovery_ms" && v >= NeverRecovered {
		return "never"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}

// WriteReport renders the deterministic human-readable report: spec
// echo, the full metric set in fixed order, and per-assertion verdicts.
func (o *Outcome) WriteReport(w io.Writer) {
	f, wl := o.Spec.Fleet, o.Spec.Workload
	fmt.Fprintf(w, "scenario %s (seed %d)\n", o.Spec.Name, o.Seed)
	if o.Spec.Description != "" {
		fmt.Fprintf(w, "  %s\n", o.Spec.Description)
	}
	fmt.Fprintf(w, "fleet: %d shards x %d machines = %d machines; %d stores rf=%d + %d servers per shard\n",
		f.Shards, f.Machines, f.Shards*f.Machines, wl.Stores, wl.RF, wl.Servers)
	if wl.Trainers.Count > 0 {
		fmt.Fprintf(w, "gpus: %d classes x %d devices per worker machine; %d trainers (model %d MB, ckpt %d KB) per shard\n",
			len(f.GPUs), f.GPUsPerMachine(), wl.Trainers.Count, wl.Trainers.ModelMB, wl.Trainers.CheckpointKB)
	}
	fmt.Fprintf(w, "horizon %gms, drain %gms, %d tenants, %d events, %d assertions\n",
		o.Spec.HorizonMS, o.Spec.DrainMS, len(wl.Tenants), len(o.Spec.Events), len(o.Spec.Asserts))
	for _, ev := range o.Spec.Events {
		fmt.Fprintf(w, "  event: %s\n", ev)
	}
	if o.Spec.SLO.Enabled() {
		fmt.Fprintf(w, "slo: %gms windows, burn-rate ring %d, %d rules; %d windows closed, %d breaches\n",
			o.Spec.SLO.WindowMS, o.Spec.SLO.Windows, len(o.Spec.SLO.Rules),
			int(o.Metrics["slo_windows"]), int(o.Metrics["slo_breaches"]))
		for _, inc := range o.Incidents {
			closeCol := fmt.Sprintf("%.1fms", float64(inc.CloseAt)/1e6)
			if inc.Open {
				closeCol = "open"
			}
			cause := inc.Cause
			if cause == "" {
				cause = "-"
			}
			fmt.Fprintf(w, "  incident [%s] %s %s: %.1fms -> %s cause=%s\n",
				inc.Severity, inc.Subject, inc.Rule, float64(inc.OpenAt)/1e6, closeCol, cause)
		}
	}
	fmt.Fprintf(w, "latency: %s\n", o.Hist.String())
	for _, name := range MetricNames {
		fmt.Fprintf(w, "  %-15s %s\n", name, fmtMetric(name, o.Metrics[name]))
	}
	for _, a := range o.Asserts {
		verdict := "PASS"
		if !a.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "assert %s: %s %s %s (got %s)\n",
			verdict, a.Metric, a.Op, fmtMetric(a.Metric, a.Bound), fmtMetric(a.Metric, a.Got))
	}
	if o.Pass {
		fmt.Fprintf(w, "RESULT PASS: %d/%d assertions hold (%d kernel events)\n",
			len(o.Asserts), len(o.Asserts), uint64(o.Metrics["events"]))
	} else {
		failed := 0
		for _, a := range o.Asserts {
			if !a.Pass {
				failed++
			}
		}
		fmt.Fprintf(w, "RESULT FAIL: %d/%d assertions violated (%d kernel events)\n",
			failed, len(o.Asserts), uint64(o.Metrics["events"]))
	}
}

// jsonReport is the machine-readable failure report shape.
type jsonReport struct {
	Scenario   string             `json:"scenario"`
	Seed       int64              `json:"seed"`
	Pass       bool               `json:"pass"`
	Metrics    map[string]float64 `json:"metrics"`
	Assertions []AssertResult     `json:"assertions"`
	Incidents  []slo.Incident     `json:"incidents,omitempty"`
}

// WriteJSON writes the machine-readable report (metrics keys sorted by
// the marshaler, so the bytes are deterministic).
func (o *Outcome) WriteJSON(w io.Writer) error {
	asserts := o.Asserts
	if asserts == nil {
		asserts = []AssertResult{}
	}
	b, err := json.MarshalIndent(jsonReport{
		Scenario:   o.Spec.Name,
		Seed:       o.Seed,
		Pass:       o.Pass,
		Metrics:    o.Metrics,
		Assertions: asserts,
		Incidents:  o.Incidents,
	}, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteFlightDump renders the merged flight-recorder timeline — the
// artifact qsctl run saves when assertions fail or an incident opened.
func (o *Outcome) WriteFlightDump(w io.Writer) error {
	title := fmt.Sprintf("%s seed %d", o.Spec.Name, o.Seed)
	return slo.WriteDump(w, title, o.Flight, o.FlightDropped)
}
