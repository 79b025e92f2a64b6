package quicksand

// Repository-level benchmarks: one per paper table/figure (running the
// experiment at TestScale; use `go run ./cmd/quicksand-bench -scale
// full` for the paper-scale numbers reported in EXPERIMENTS.md), plus
// micro-benchmarks of the runtime primitives those experiments rest
// on. Benchmarks report key experiment outcomes as custom metrics so
// regressions in *behaviour*, not just wall time, are visible.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/proclet"
	"repro/internal/sharded"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// benchSystem builds the standard 2-machine benchmark fixture.
func benchSystem() *core.System {
	return core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: 4 << 30},
		{Cores: 8, MemBytes: 4 << 30},
	})
}

// ---- Paper figures ----

// BenchmarkFig1FillerMigration regenerates Figure 1: the filler
// application migrating across machines every 10 ms.
func BenchmarkFig1FillerMigration(b *testing.B) {
	b.ReportAllocs()
	var goodput float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("fig1", experiments.TestScale)
		if err != nil {
			b.Fatal(err)
		}
		goodput = res.Values["quicksand.goodput_pct"]
	}
	b.ReportMetric(goodput, "goodput_%ideal")
}

// BenchmarkFig2Imbalance regenerates Figure 2: preprocessing-time
// parity across imbalanced machine splits.
func BenchmarkFig2Imbalance(b *testing.B) {
	b.ReportAllocs()
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("fig2", experiments.TestScale)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, cfgName := range []string{"cpu-unbalanced", "mem-unbalanced", "both-unbalanced"} {
			if r := res.Values[cfgName+".ratio"]; r > worst {
				worst = r
			}
		}
	}
	b.ReportMetric(worst, "worst_ratio_vs_baseline")
}

// BenchmarkFig3Adaptation regenerates Figure 3: compute proclets
// tracking 4<->8 GPU swings.
func BenchmarkFig3Adaptation(b *testing.B) {
	b.ReportAllocs()
	var react float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("fig3", experiments.TestScale)
		if err != nil {
			b.Fatal(err)
		}
		react = res.Values["react_mean_ms"]
	}
	b.ReportMetric(react, "settle_ms")
}

// ---- Ablations ----

func benchAblation(b *testing.B, id, metric, unit string) {
	b.Helper()
	b.ReportAllocs()
	var v float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.TestScale)
		if err != nil {
			b.Fatal(err)
		}
		v = res.Values[metric]
	}
	b.ReportMetric(v, unit)
}

func BenchmarkAblMigrationSweep(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, "abl-migration", "latency_ms.10485760", "mig10MiB_ms")
}

func BenchmarkAblSplitSweep(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, "abl-split", "split_ms.1048576", "split1MiB_ms")
}

func BenchmarkAblPrefetch(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, "abl-prefetch", "speedup", "prefetch_speedup_x")
}

func BenchmarkAblSched(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, "abl-sched", "global-only.goodput_pct", "globalonly_goodput_%")
}

func BenchmarkAblLocality(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, "abl-locality", "speedup", "colocation_speedup_x")
}

// ---- Runtime micro-benchmarks ----

// BenchmarkKernelEventThroughput measures raw simulator event
// processing (host events per host second).
func BenchmarkKernelEventThroughput(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(time.Microsecond, tick)
		}
	}
	k.After(time.Microsecond, tick)
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelScheduleStep measures the schedule/dispatch cycle
// through both queue paths: two same-instant events (FIFO fast path)
// plus one future event (binary heap).
func BenchmarkKernelScheduleStep(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	noop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(k.Now(), noop)
		k.Schedule(k.Now(), noop)
		k.After(time.Microsecond, noop)
		for k.Step() {
		}
	}
}

// BenchmarkProcSwitch measures process park and resume: two
// processes ping-pong, either by yielding the instant to each other or
// through a pair of unbuffered sim.Chans. One op is one round trip, in
// which each process parks and is resumed once.
func BenchmarkProcSwitch(b *testing.B) {
	b.Run("yield", func(b *testing.B) {
		b.ReportAllocs()
		k := sim.NewKernel(1)
		defer k.Close()
		for i := 0; i < 2; i++ {
			k.Spawn("yielder", func(p *sim.Proc) {
				for j := 0; j < b.N; j++ {
					p.Yield()
				}
			})
		}
		b.ResetTimer()
		k.Run()
	})
	b.Run("chan", func(b *testing.B) {
		b.ReportAllocs()
		k := sim.NewKernel(1)
		defer k.Close()
		ping, pong := sim.NewChan[int](k, 0), sim.NewChan[int](k, 0)
		k.Spawn("ping", func(p *sim.Proc) {
			for j := 0; j < b.N; j++ {
				ping.Send(p, j)
				pong.Recv(p)
			}
		})
		k.Spawn("pong", func(p *sim.Proc) {
			for j := 0; j < b.N; j++ {
				v, _ := ping.Recv(p)
				pong.Send(p, v)
			}
		})
		b.ResetTimer()
		k.Run()
	})
}

// BenchmarkParKernelWindow measures the window barrier: 8 shards, each
// with one tick of light work per lookahead window plus one cross-shard
// message, so every window has all shards runnable. One op is one
// window. At P=1 the shards run on the calling goroutine; at P=2 every
// window crosses the barrier.
func BenchmarkParKernelWindow(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			const shards = 8
			const lookahead = 2 * sim.Microsecond
			pk := sim.NewParKernel(1, shards, lookahead)
			defer pk.Close()
			pk.SetWorkers(workers)
			noop := func() {}
			for s := 0; s < shards; s++ {
				s := s
				k := pk.Shard(s)
				k.Every(0, time.Duration(lookahead), func() bool {
					for i := 0; i < 4; i++ {
						k.After(time.Duration(i)*time.Nanosecond, noop)
					}
					pk.Send(s, (s+1)%shards, k.Now()+lookahead, noop)
					return true
				})
			}
			b.ResetTimer()
			pk.RunUntil(sim.Time(b.N) * lookahead)
			b.StopTimer()
			if got := pk.Windows(); got < uint64(b.N) {
				b.Fatalf("ran %d windows, want at least %d", got, b.N)
			}
		})
	}
}

// BenchmarkMachineSubmitChurn measures the processor-sharing machine
// under task churn: submits, a rate change, a cancellation, and
// completion retirement per iteration.
func BenchmarkMachineSubmitChurn(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	m := cluster.NewMachine(k, 0, "m", cluster.MachineConfig{Cores: 4})
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var last *cluster.Task
		for j := 0; j < 8; j++ {
			last = m.Submit(100 * time.Microsecond)
		}
		m.SetReserved(float64(n % 4))
		k.RunUntil(k.Now().Add(150 * time.Microsecond))
		last.Cancel()
		k.RunUntil(k.Now().Add(time.Millisecond))
	}
}

// BenchmarkLocalInvoke measures same-machine proclet method dispatch.
func BenchmarkLocalInvoke(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	pr, err := sys.Runtime.Spawn("svc", 0, 1024)
	if err != nil {
		b.Fatal(err)
	}
	pr.Handle("noop", func(ctx *proclet.Ctx, arg proclet.Msg) (proclet.Msg, error) {
		return proclet.Msg{}, nil
	})
	b.ResetTimer()
	sys.K.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Runtime.Invoke(p, 0, 0, pr.ID(), "noop", proclet.Msg{}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sys.K.Run()
}

// BenchmarkRemoteInvoke measures cross-machine proclet RPC.
func BenchmarkRemoteInvoke(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	pr, err := sys.Runtime.Spawn("svc", 1, 1024)
	if err != nil {
		b.Fatal(err)
	}
	pr.Handle("noop", func(ctx *proclet.Ctx, arg proclet.Msg) (proclet.Msg, error) {
		return proclet.Msg{Bytes: 128}, nil
	})
	b.ResetTimer()
	sys.K.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Runtime.Invoke(p, 0, 0, pr.ID(), "noop", proclet.Msg{Bytes: 128}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sys.K.Run()
}

// BenchmarkRPCCall measures the raw fabric RPC path (no proclet layer):
// an inline fast handler versus a pooled-process blocking handler.
// Both variants should run allocation-free per call.
func BenchmarkRPCCall(b *testing.B) {
	bench := func(b *testing.B, fast bool) {
		b.ReportAllocs()
		k := sim.NewKernel(1)
		defer k.Close()
		f := simnet.New(k, simnet.DefaultConfig())
		f.AddNode(1)
		srv := f.AddNode(2)
		if fast {
			srv.HandleFast("echo", func(req simnet.Message) (simnet.Message, error) {
				return simnet.Message{Bytes: 128}, nil
			})
		} else {
			srv.Handle("echo", func(p *sim.Proc, req simnet.Message) (simnet.Message, error) {
				return simnet.Message{Bytes: 128}, nil
			})
		}
		b.ResetTimer()
		k.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				if _, err := f.Call(p, 1, 2, "echo", simnet.Message{Bytes: 128}); err != nil {
					b.Error(err)
					return
				}
			}
		})
		k.Run()
	}
	b.Run("fast", func(b *testing.B) { bench(b, true) })
	b.Run("blocking", func(b *testing.B) { bench(b, false) })
}

// BenchmarkProcletMigration measures a 64 KiB proclet bouncing between
// machines, reporting the virtual migration latency alongside host
// cost.
func BenchmarkProcletMigration(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	pr, err := sys.Runtime.Spawn("migrant", 0, 64<<10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sys.K.Spawn("ctl", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := sys.Runtime.Migrate(p, pr.ID(), cluster.MachineID(1-int(pr.Location()))); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sys.K.Run()
	b.ReportMetric(sys.Runtime.MigrationLatency.Mean()*1e6, "virtual_us/mig")
}

// BenchmarkShardedMapPut measures sharded map writes including the
// amortized cost of splits.
func BenchmarkShardedMapPut(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	m, err := sharded.NewMap[int, int](sys, "bench", sharded.Options{MaxShardBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sys.K.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := m.Put(p, 0, i, i, 256); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sys.K.Run()
	b.ReportMetric(float64(m.NumShards()), "final_shards")
}

// BenchmarkShardedQueuePushPop measures the producer/consumer path
// through a sharded queue.
func BenchmarkShardedQueuePushPop(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	q, err := sharded.NewQueue[int](sys, "bench", sharded.Options{MaxShardBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sys.K.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := q.Push(p, 0, i, 256); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sys.K.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := q.Pop(p, 1); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sys.K.Run()
}

// BenchmarkVectorIterPrefetch measures streaming a sharded vector with
// prefetch enabled.
func BenchmarkVectorIterPrefetch(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	v, err := sharded.NewVector[int](sys, "bench", sharded.Options{MaxShardBytes: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	sys.K.Spawn("loader", func(p *sim.Proc) {
		for i := 0; i < 4096; i++ {
			v.PushBack(p, 1, i, 4<<10)
		}
	})
	sys.K.Run()
	b.ResetTimer()
	sys.K.Spawn("reader", func(p *sim.Proc) {
		done := 0
		for done < b.N {
			it := v.Iter(32)
			for done < b.N {
				_, ok, err := it.Next(p, 0)
				if err != nil {
					b.Error(err)
					return
				}
				if !ok {
					break
				}
				done++
			}
		}
	})
	sys.K.Run()
}

// ---- Extensions ----

// BenchmarkExtGPUReclaim regenerates the GPU-proclet extension: spot
// reclamations survived by device-state migration.
func BenchmarkExtGPUReclaim(b *testing.B) {
	b.ReportAllocs()
	var pct float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("ext-gpu", experiments.TestScale)
		if err != nil {
			b.Fatal(err)
		}
		pct = res.Values["gpu-proclets.ideal_pct"]
	}
	b.ReportMetric(pct, "ideal_%")
}

// BenchmarkExtHarvest regenerates fleet-wide idle harvesting.
func BenchmarkExtHarvest(b *testing.B) {
	b.ReportAllocs()
	var pct float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("ext-harvest", experiments.TestScale)
		if err != nil {
			b.Fatal(err)
		}
		pct = res.Values["quicksand.goodput_pct"]
	}
	b.ReportMetric(pct, "goodput_%ideal")
}

// BenchmarkExtServe regenerates the million-client open-loop serving
// scenario (aggregate arrival processes over a partitioned fleet).
func BenchmarkExtServe(b *testing.B) {
	b.ReportAllocs()
	var p999 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("ext-serve", experiments.TestScale)
		if err != nil {
			b.Fatal(err)
		}
		p999 = res.Values["p999_ms"]
	}
	b.ReportMetric(p999, "p999_ms")
}

// ---- Load-plane micro-benchmarks ----

// BenchmarkZipfSample measures the O(1) Zipfian key sampler over a
// 10M-key space. The sample path must be allocation-free: skewed key
// popularity costs a handful of float ops per request regardless of
// keyspace size.
func BenchmarkZipfSample(b *testing.B) {
	b.ReportAllocs()
	z := load.NewZipf(10_000_000, 0.99)
	rng := rand.New(rand.NewSource(1))
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = load.ScrambleKey(z.Sample(rng))
	}); allocs != 0 {
		b.Fatalf("zipf sample path allocates: %v allocs/op", allocs)
	}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += load.ScrambleKey(z.Sample(rng))
	}
	_ = sink
}

// BenchmarkArrivalBatch measures drawing one 250us window of
// nonhomogeneous-Poisson arrivals at ~400k req/s from a diurnal curve —
// the injector's per-window generation step. Steady-state draws must be
// allocation-free: generation cost is O(requests), never O(clients).
func BenchmarkArrivalBatch(b *testing.B) {
	b.ReportAllocs()
	horizon := sim.Time(time.Hour)
	curve := load.Sampled(horizon, 250*time.Millisecond, load.Diurnal(400_000, 0.5, 10*time.Second))
	a := load.NewArrivals(curve, rand.New(rand.NewSource(1)))
	window := sim.Time(250 * time.Microsecond)
	from := sim.Time(0)
	for i := 0; i < 64; i++ { // warm the reusable buffer
		a.Draw(from, from+window)
		from += window
	}
	if allocs := testing.AllocsPerRun(100, func() {
		a.Draw(from, from+window)
		from += window
	}); allocs != 0 {
		b.Fatalf("arrival batch allocates at steady state: %v allocs/op", allocs)
	}
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n += len(a.Draw(from, from+window))
		from += window
		if from >= horizon {
			from = 0
		}
	}
	b.ReportMetric(float64(n)/float64(b.N), "arrivals/window")
}

// BenchmarkLogHistogramRecord measures the fixed-bucket latency
// histogram's record path (one index computation, no allocation).
func BenchmarkLogHistogramRecord(b *testing.B) {
	b.ReportAllocs()
	h := metrics.NewLogHistogram("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i)*7919 + 1000)
	}
}

// BenchmarkGPUStep measures one training step (batch upload + kernel)
// through the GPU proclet path.
func BenchmarkGPUStep(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	m := sys.Cluster.Machine(0)
	m.AddGPUs(cluster.GPUConfig{Count: 1, MemBytes: 16 << 30, LinkBandwidth: 16_000_000_000})
	gp, err := gpu.New(sys, "trainer", m.GPU(0), 1<<30, 100*time.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sys.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := gp.Step(p, 0, 1<<20); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sys.K.Run()
}
