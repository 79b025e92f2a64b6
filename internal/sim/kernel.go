// Package sim provides a deterministic discrete-event simulation kernel
// with virtual time and coroutine-backed simulated processes.
//
// The kernel executes exactly one simulated process at a time and
// switches to and from it as a coroutine (iter.Pull), so simulated code
// is written as ordinary sequential Go while the kernel retains full
// determinism: given the same seed and the same program, every run
// produces an identical event order. Virtual time advances only when
// the kernel pops events from its queue; simulated code never consumes
// wall-clock time.
//
// All Quicksand substrates (machines, networks, proclets) are built on
// this kernel, which is what makes microsecond-scale claims (migration
// latency, time-to-equilibrium) reproducible in tests on any hardware.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is an absolute virtual timestamp in nanoseconds since the start
// of the simulation.
type Time int64

// Common virtual-time unit constants.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier time u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts the timestamp to a duration since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the timestamp as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return time.Duration(t).String() }

// event is a single entry in the kernel's event queue. Events are held
// by value inside the kernel's slices — there is no per-event heap
// allocation and no interface boxing on the schedule/pop path; the
// slices themselves act as the event pool, retaining capacity across
// the run.
//
// The hot event payloads are typed instead of closed over: process
// wakes carry the *Proc directly and tagged callbacks carry a uint64
// argument, so the dominant event kinds (wake, sleep-expiry, machine
// completion re-arms) schedule without allocating a closure.
type event struct {
	at   Time
	seq  uint64
	tag  uint64       // evTagged argument
	fn   func()       // evFn payload
	tfn  func(uint64) // evTagged payload
	p    *Proc        // evResume / evWakeParked payload
	kind uint8
}

// Event payload kinds.
const (
	evFn         = uint8(iota) // run fn()
	evTagged                   // run tfn(tag)
	evResume                   // resume p (already un-blocked by wake)
	evWakeParked               // un-block and resume p (Sleep expiry)
	evStart                    // first resume of a freshly spawned p
)

// keyLess orders events by (time, insertion sequence). It takes the
// two keys rather than the events so the heap compares in registers
// instead of copying 56-byte events.
func keyLess(at Time, seq uint64, bt Time, bseq uint64) bool {
	return at < bt || at == bt && seq < bseq
}

// Kernel is a deterministic discrete-event simulator.
//
// A Kernel is not safe for concurrent use from multiple host goroutines;
// all interaction must happen either before Run or from within simulated
// processes and scheduled events. Distinct kernels are fully independent
// and may run concurrently on separate host goroutines.
type Kernel struct {
	now Time
	seq uint64

	// The event queue is split in two. Events scheduled for a future
	// instant go through a hand-rolled 4-ary min-heap over a value
	// slice (heapPush/heapPop). Events scheduled at exactly the current
	// instant — the dominant case: wakes, Yield, same-instant event
	// chains — take a FIFO fast path that bypasses the heap entirely.
	// FIFO order within nowq equals (time, seq) order because entries
	// are appended with nondecreasing timestamps and increasing
	// sequence numbers; pop compares the FIFO head against the heap top
	// so global (time, seq) order is preserved exactly.
	heap    []event
	nowq    []event
	nowHead int

	rng       *rand.Rand
	nextPID   int64
	live      int // processes spawned and not yet finished
	blocked   int // processes currently parked
	curr      *Proc
	processed uint64
	stopFlag  bool

	// Worker pool for the spawn-run-die process pattern (RPC handlers,
	// migration copiers, per-task workers). Each worker is a coroutine
	// and a Proc struct, created once and reused across process
	// lifetimes; a finished process returns its worker to the free list
	// instead of letting the coroutine end. A worker whose process
	// panicked is discarded, never pooled.
	free    []*worker
	created uint64 // workers (coroutines) ever created
}

// NewKernel returns a kernel whose random source is seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// EventsProcessed reports how many events the kernel has executed.
func (k *Kernel) EventsProcessed() uint64 { return k.processed }

// Live reports the number of spawned processes that have not finished.
func (k *Kernel) Live() int { return k.live }

// Blocked reports the number of processes currently parked on a wait
// primitive. When Run returns with Blocked() > 0, those processes were
// waiting on conditions that never fired (often daemons, sometimes bugs).
func (k *Kernel) Blocked() int { return k.blocked }

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return len(k.heap) + len(k.nowq) - k.nowHead }

// Schedule runs fn at absolute virtual time at (clamped to now if in the
// past). fn executes in kernel context: it must not block, but it may
// spawn or wake processes.
func (k *Kernel) Schedule(at Time, fn func()) {
	k.push(at, event{fn: fn, kind: evFn})
}

// ScheduleTagged runs fn(tag) at absolute virtual time at (clamped like
// Schedule). Because the argument travels in the event itself, callers
// that re-arm the same callback with varying state (for example a
// machine's generation-guarded completion event) can hold one long-lived
// fn and schedule with zero allocations.
func (k *Kernel) ScheduleTagged(at Time, fn func(tag uint64), tag uint64) {
	k.push(at, event{tfn: fn, tag: tag, kind: evTagged})
}

// AfterTagged runs fn(tag) after virtual duration d.
func (k *Kernel) AfterTagged(d time.Duration, fn func(tag uint64), tag uint64) {
	k.ScheduleTagged(k.now.Add(d), fn, tag)
}

// push stamps e with (time, seq) and routes it to the same-instant FIFO
// or the future heap.
func (k *Kernel) push(at Time, e event) {
	k.seq++
	e.seq = k.seq
	if at <= k.now {
		// Same-instant fast path: append to the FIFO, skip the heap.
		e.at = k.now
		k.nowq = append(k.nowq, e)
		return
	}
	e.at = at
	k.heapPush(e)
}

// heapArity is the fan-out of the future-event heap. A 4-ary heap is
// half as deep as a binary one, so a pop moves the hole down half as
// many levels; the four children it compares per level sit in 224
// contiguous bytes.
const heapArity = 4

// heapPush inserts e into the future-event heap. It sifts a hole up
// from the new leaf, moving each later parent down one level, and
// writes e once where the hole stops.
func (k *Kernel) heapPush(e event) {
	h := append(k.heap, event{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !keyLess(e.at, e.seq, h[p].at, h[p].seq) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	k.heap = h
}

// heapPop removes and returns the minimum future event. The root
// becomes a hole that sinks toward the earliest child until the former
// last leaf fits, which is then written once.
func (k *Kernel) heapPop() event {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the closure to the GC
	h = h[:n]
	i := 0
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		m, mat, mseq := c, h[c].at, h[c].seq
		for j := c + 1; j < min(c+heapArity, n); j++ {
			if keyLess(h[j].at, h[j].seq, mat, mseq) {
				m, mat, mseq = j, h[j].at, h[j].seq
			}
		}
		if !keyLess(mat, mseq, last.at, last.seq) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	k.heap = h
	return top
}

// nowqPop removes and returns the FIFO head. The backing array is
// reused once the queue drains, so steady-state same-instant traffic
// allocates nothing. A queue that never drains (processes yielding to
// each other at one instant) slides its live entries down once the
// popped prefix is half the slice, instead of growing without bound.
func (k *Kernel) nowqPop() event {
	e := k.nowq[k.nowHead]
	k.nowq[k.nowHead] = event{} // release payload references to the GC
	k.nowHead++
	switch {
	case k.nowHead == len(k.nowq):
		k.nowq = k.nowq[:0]
		k.nowHead = 0
	case k.nowHead >= 64 && 2*k.nowHead >= len(k.nowq):
		n := copy(k.nowq, k.nowq[k.nowHead:])
		clear(k.nowq[n:])
		k.nowq = k.nowq[:n]
		k.nowHead = 0
	}
	return e
}

// pop removes and returns the globally next event in (time, seq) order,
// merging the FIFO fast path with the heap.
func (k *Kernel) pop() (event, bool) {
	qn := k.nowHead < len(k.nowq)
	hn := len(k.heap) > 0
	switch {
	case qn && hn:
		h, q := &k.heap[0], &k.nowq[k.nowHead]
		if keyLess(h.at, h.seq, q.at, q.seq) {
			return k.heapPop(), true
		}
		return k.nowqPop(), true
	case qn:
		return k.nowqPop(), true
	case hn:
		return k.heapPop(), true
	}
	return event{}, false
}

// nextAt returns the timestamp of the next pending event, consulting
// both the FIFO fast path and the heap.
func (k *Kernel) nextAt() (Time, bool) {
	qn := k.nowHead < len(k.nowq)
	hn := len(k.heap) > 0
	switch {
	case qn && hn:
		q, h := k.nowq[k.nowHead].at, k.heap[0].at
		if h < q {
			return h, true
		}
		return q, true
	case qn:
		return k.nowq[k.nowHead].at, true
	case hn:
		return k.heap[0].at, true
	}
	return 0, false
}

// After runs fn after virtual duration d.
func (k *Kernel) After(d time.Duration, fn func()) {
	k.Schedule(k.now.Add(d), fn)
}

// inject schedules fn at absolute time at from a ParKernel window
// barrier. Unlike Schedule it refuses to clamp past timestamps: a
// cross-shard delivery in the destination's past would be a causality
// violation — the lookahead contract (Send) exists precisely to make
// this impossible, so tripping here means a model charged less than the
// minimum propagation latency.
func (k *Kernel) inject(at Time, fn func()) {
	if at <= k.now {
		panic(fmt.Sprintf("sim: cross-shard delivery at %v is not after shard time %v (causality violation)", at, k.now))
	}
	k.seq++
	k.heapPush(event{at: at, seq: k.seq, fn: fn, kind: evFn})
}

// advanceTo moves the clock forward to t without executing anything
// (no-op if the clock is already at or past t). Used by ParKernel to
// leave all shards at a common instant after a bounded run.
func (k *Kernel) advanceTo(t Time) {
	if k.now < t {
		k.now = t
	}
}

// Every runs fn at t0 and then every period until it returns false or
// the simulation ends.
func (k *Kernel) Every(t0 Time, period time.Duration, fn func() bool) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	var tick func()
	at := t0
	tick = func() {
		if !fn() {
			return
		}
		at = at.Add(period)
		k.Schedule(at, tick)
	}
	k.Schedule(at, tick)
}

// Spawn starts a new simulated process running fn. The process begins
// executing at the current virtual time, after the caller yields back to
// the kernel.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := k.spawnProc(fn)
	p.name = name
	return p
}

// SpawnLazy is Spawn with deferred naming: nameFn runs only if the
// process name is actually observed (a panic message, debugging). Hot
// spawn paths use it to avoid a fmt.Sprintf per process.
func (k *Kernel) SpawnLazy(nameFn func() string, fn func(p *Proc)) *Proc {
	p := k.spawnProc(fn)
	p.nameFn = nameFn
	return p
}

func (k *Kernel) spawnProc(fn func(p *Proc)) *Proc {
	w := k.getWorker()
	p := w.p
	k.nextPID++
	p.ID = k.nextPID
	p.name, p.nameFn = "", nil
	p.finished = false
	// parkSeq deliberately survives reuse: it stays monotonic so waiter
	// handles from the previous lifetime remain stale.
	w.fn = fn
	k.live++
	k.push(k.now, event{p: p, kind: evStart})
	return p
}

// PooledWorkers reports the number of idle workers on the free list.
func (k *Kernel) PooledWorkers() int { return len(k.free) }

// WorkersCreated reports how many worker coroutines the kernel has ever
// created; the gap between this and the number of processes spawned is
// the pool's hit count.
func (k *Kernel) WorkersCreated() uint64 { return k.created }

// wake schedules p to resume at the current virtual time.
func (k *Kernel) wake(p *Proc) {
	k.blocked--
	k.push(k.now, event{p: p, kind: evResume})
}

// Step executes the next pending event. It reports false when the event
// queue is empty.
func (k *Kernel) Step() bool {
	e, ok := k.pop()
	if !ok {
		return false
	}
	if e.at > k.now {
		k.now = e.at
	}
	k.processed++
	switch e.kind {
	case evFn:
		e.fn()
	case evTagged:
		e.tfn(e.tag)
	case evResume:
		k.resumeAndWait(e.p)
	case evWakeParked:
		k.blocked--
		k.resumeAndWait(e.p)
	case evStart:
		k.resumeAndWait(e.p)
	}
	return true
}

// Run executes events until the queue drains or Stop is called. It
// returns the final virtual time.
func (k *Kernel) Run() Time {
	k.stopFlag = false
	for !k.stopFlag && k.Step() {
	}
	return k.now
}

// RunUntil executes events with timestamps up to and including t, then
// advances the clock to t. Events scheduled after t remain queued. The
// next-event check consults both the same-instant FIFO and the heap, so
// current-instant work queued on the fast path is never stranded.
func (k *Kernel) RunUntil(t Time) Time {
	k.stopFlag = false
	for !k.stopFlag {
		at, ok := k.nextAt()
		if !ok || at > t {
			break
		}
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
	return k.now
}

// Stop makes the innermost Run or RunUntil return after the current
// event completes. It may be called from events or simulated processes.
func (k *Kernel) Stop() { k.stopFlag = true }

// Proc is a simulated process: a coroutine whose execution interleaves
// deterministically with all other simulated processes under kernel
// control. All blocking methods must be called only from the process's
// own body.
//
// Proc structs are pooled along with their workers: once a process
// finishes, its struct may be recycled for a later Spawn with a new ID.
// Holding a *Proc past the process's completion and calling blocking
// methods on it is a bug (and now panics via the park guard); waiter
// handles remain safe because park generations are monotonic across
// reuse.
type Proc struct {
	ID       int64
	k        *Kernel
	w        *worker
	finished bool

	// Lazy naming: name is computed from nameFn the first time Name is
	// called, so hot spawn paths never pay for a formatted name that
	// nobody looks at.
	name   string
	nameFn func() string

	// Park-cycle state for waiter handles (see prepark): parkSeq
	// identifies the current cycle and parkWoken records whether some
	// waker already won it.
	parkSeq   uint64
	parkWoken bool
}

// Name returns the process name, computing it on first use when the
// process was spawned with SpawnLazy.
func (p *Proc) Name() string {
	if p.name == "" && p.nameFn != nil {
		p.name = p.nameFn()
		p.nameFn = nil
	}
	if p.name == "" {
		return fmt.Sprintf("proc-%d", p.ID)
	}
	return p.name
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep suspends the process for virtual duration d.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	k := p.k
	k.push(k.now.Add(d), event{p: p, kind: evWakeParked})
	p.parkCounted()
}

// SleepUntil suspends the process until absolute virtual time t.
func (p *Proc) SleepUntil(t Time) {
	p.Sleep(t.Sub(p.k.now))
}

// Yield lets every other event and process scheduled for the current
// instant run before this process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// parkCounted parks and lets the kernel account the process as blocked.
// The waker must go through a path that decrements the blocked count
// (kernel.wake / the evWakeParked event).
func (p *Proc) parkCounted() { p.park() }

// waiter is a one-shot wake handle for one park cycle of a process.
// Primitives (channels, mutexes, timeouts) register a waiter before
// parking so that multiple potential wakers (for example, a sender and
// a timeout) race safely: only the first wake resumes the process.
//
// Waiters are values, not allocations: the handle is (process,
// park-cycle generation), and the live cycle state lives in the Proc.
// A handle from an earlier cycle — say, a timeout that fires after its
// process was woken by a sender and parked somewhere new — sees a
// generation mismatch and becomes inert.
type waiter struct {
	p   *Proc
	gen uint64
}

// prepark opens a new park cycle and returns its wake handle. The
// caller must subsequently call park exactly once; any number of
// parties may call wake on copies of the handle.
func (p *Proc) prepark() waiter {
	p.parkSeq++
	p.parkWoken = false
	return waiter{p: p, gen: p.parkSeq}
}

// woken reports whether this handle can no longer wake its process:
// either some waker already won this park cycle, or the process has
// moved on to a later cycle and the handle is stale.
func (w waiter) woken() bool {
	return w.gen != w.p.parkSeq || w.p.parkWoken
}

// wake resumes the parked process if it has not been woken already. It
// reports whether this call was the one that woke it. Safe to call from
// kernel context or from another simulated process.
func (w waiter) wake() bool {
	if w.woken() {
		return false
	}
	w.p.parkWoken = true
	w.p.k.wake(w.p)
	return true
}
