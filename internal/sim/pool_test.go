package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines polls until at most want goroutines remain, failing
// the test if the count has not come down within a few seconds: an
// exiting goroutine or coroutine is gone from runtime.NumGoroutine
// shortly after it returns, but not necessarily at once.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines still running, want at most %d", what, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpawnReusesWorkers: sequential spawn-run-die processes must share
// one pooled worker goroutine instead of creating one each.
func TestSpawnReusesWorkers(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	ran := 0
	for i := 0; i < 100; i++ {
		k.Spawn("w", func(p *Proc) {
			p.Sleep(time.Microsecond)
			ran++
		})
		k.Run()
	}
	if ran != 100 {
		t.Fatalf("ran %d processes, want 100", ran)
	}
	if k.WorkersCreated() != 1 {
		t.Fatalf("created %d workers for sequential spawns, want 1", k.WorkersCreated())
	}
	if k.PooledWorkers() != 1 {
		t.Fatalf("PooledWorkers = %d, want 1", k.PooledWorkers())
	}
}

// TestSpawnOverlappingWorkers: concurrently-live processes need distinct
// workers, which all return to the pool once they finish.
func TestSpawnOverlappingWorkers(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	for i := 0; i < 8; i++ {
		k.Spawn("w", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	k.Run()
	if k.WorkersCreated() != 8 {
		t.Fatalf("created %d workers for 8 overlapping processes, want 8", k.WorkersCreated())
	}
	if k.PooledWorkers() != 8 {
		t.Fatalf("PooledWorkers = %d after drain, want 8", k.PooledWorkers())
	}
	// The next burst reuses all eight.
	for i := 0; i < 8; i++ {
		k.Spawn("w", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	k.Run()
	if k.WorkersCreated() != 8 {
		t.Fatalf("created %d workers after reuse burst, want 8", k.WorkersCreated())
	}
}

// TestPanicDoesNotPoisonPool: a panic inside a pooled process must
// discard that worker, and the next Spawn must get a clean one.
func TestPanicDoesNotPoisonPool(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	defer k.Close()

	// Prime the pool with one healthy worker.
	k.Spawn("ok", func(p *Proc) {})
	k.Run()
	if k.PooledWorkers() != 1 {
		t.Fatalf("PooledWorkers = %d, want 1", k.PooledWorkers())
	}

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected kernel panic from process panic")
			}
			if !strings.Contains(r.(string), `process "boom" panicked`) {
				t.Fatalf("unexpected panic message: %v", r)
			}
		}()
		k.Spawn("boom", func(p *Proc) { panic("bang") })
		k.Run()
	}()

	// The panicked worker must not be back on the free list, and its
	// coroutine must have ended: "boom" ran on the primed worker, so no
	// process coroutine is left at all.
	if k.PooledWorkers() != 0 {
		t.Fatalf("PooledWorkers = %d after panic, want 0", k.PooledWorkers())
	}
	waitGoroutines(t, base, "after process panic")

	// And the pool still works: subsequent spawns run normally on fresh
	// workers.
	ran := false
	k.Spawn("after", func(p *Proc) {
		p.Sleep(time.Microsecond)
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("process spawned after panic did not run")
	}
}

// TestSpawnLazyName: the name function must not run unless the name is
// observed, and must run exactly once when it is.
func TestSpawnLazyName(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	calls := 0
	p := k.SpawnLazy(func() string { calls++; return "lazy-1" }, func(p *Proc) {})
	k.Run()
	if calls != 0 {
		t.Fatalf("nameFn ran %d times without the name being observed", calls)
	}
	if got := p.Name(); got != "lazy-1" {
		t.Fatalf("Name() = %q, want %q", got, "lazy-1")
	}
	if got := p.Name(); got != "lazy-1" || calls != 1 {
		t.Fatalf("second Name() = %q (calls=%d), want cached %q (1 call)", got, calls, "lazy-1")
	}
}

// TestBlockFromKernelContextPanics: blocking calls on a process from
// kernel context (an event, a fast handler) must panic with a clear
// message instead of deadlocking the kernel.
func TestBlockFromKernelContextPanics(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	var victim *Proc
	victim = k.Spawn("victim", func(p *Proc) { p.Sleep(time.Second) })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic from blocking call in kernel context")
		}
		if !strings.Contains(r.(string), "must not block") {
			t.Fatalf("unexpected panic message: %v", r)
		}
	}()
	k.Schedule(k.Now().Add(time.Microsecond), func() {
		victim.Sleep(time.Millisecond) // not the running process: must panic
	})
	k.Run()
}

// TestCloseRetiresWorkers: Close must empty the free list and end the
// retired coroutines; the kernel stays usable afterwards.
func TestCloseRetiresWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *Proc) { p.Sleep(time.Microsecond) })
	}
	k.Run()
	if k.PooledWorkers() != 4 {
		t.Fatalf("PooledWorkers = %d, want 4", k.PooledWorkers())
	}
	k.Close()
	if k.PooledWorkers() != 0 {
		t.Fatalf("PooledWorkers = %d after Close, want 0", k.PooledWorkers())
	}
	waitGoroutines(t, base, "after Close")
	ran := false
	k.Spawn("again", func(p *Proc) { ran = true })
	k.Run()
	if !ran {
		t.Fatal("spawn after Close did not run")
	}
	k.Close()
	waitGoroutines(t, base, "after second Close")
}

// TestSwitchAllocationFree: once the pool and the event queues are
// warm, a park/resume round trip (Yield: park, wake event, resume)
// allocates nothing.
func TestSwitchAllocationFree(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	stop := false
	k.Spawn("yielder", func(p *Proc) {
		for !stop {
			p.Yield()
		}
	})
	for i := 0; i < 100; i++ {
		k.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { k.Step() }); allocs != 0 {
		t.Fatalf("park/resume round trip allocates %v times, want 0", allocs)
	}
	stop = true
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("Live = %d after the yielder stopped, want 0", k.Live())
	}
}
