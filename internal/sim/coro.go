//go:build go1.23

// The build constraint raises only this file's language version to
// Go 1.23, which iter.Pull needs. go.mod stays at go 1.22 because
// modules that require this one and declare go 1.22 (perfbench) build
// with GOTOOLCHAIN=local and GOPROXY=off, where a newer directive here
// fails with "go: updates to go.mod needed".

package sim

import (
	"fmt"
	"iter"
)

// worker is a pooled execution vehicle for simulated processes: one
// iter.Pull coroutine and one Proc struct, created together and reused
// across process lifetimes. The kernel switches into the coroutine with
// next and the process switches back with yield; each switch is a
// direct hand-over on the current thread, not a trip through the Go
// scheduler. Between lifetimes the coroutine is suspended in run;
// handing it a new fn costs one switch instead of a goroutine creation.
type worker struct {
	p  *Proc
	fn func(p *Proc) // next body to run; nil retires the worker

	// next resumes the coroutine. It returns (true, true) when the
	// process finished, (false, true) when it parked, and ok=false once
	// the coroutine has ended (its body panicked, or it was retired).
	next  func() (done, ok bool)
	yield func(done bool) bool

	panicVal any // recovered from the body that ended the coroutine
}

// run is the coroutine body. Each spawn that draws this worker sets fn
// and resumes it for one process lifetime; run ends when a resume finds
// fn cleared (Kernel.Close) or when a body panics.
func (w *worker) run(yield func(done bool) bool) {
	w.yield = yield
	for w.fn != nil && w.runOne() {
		yield(true)
	}
}

// runOne executes one process lifetime and reports whether the worker
// may be reused. A panic in the body is recovered and stored for the
// kernel to re-raise; the coroutine then ends, since its state is
// suspect and the pool must never see it again.
func (w *worker) runOne() (ok bool) {
	p, fn := w.p, w.fn
	w.fn = nil
	defer func() {
		if r := recover(); r != nil {
			w.panicVal = r
		}
	}()
	fn(p)
	return true
}

// getWorker pops a suspended worker off the free list or creates one.
func (k *Kernel) getWorker() *worker {
	if n := len(k.free); n > 0 {
		w := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return w
	}
	k.created++
	w := &worker{}
	w.p = &Proc{k: k, w: w}
	w.next, _ = iter.Pull(w.run)
	return w
}

// Close retires the suspended workers on the free list, letting their
// coroutines end. Go never reclaims a blocked coroutine, so code that
// churns through many kernels (benchmark loops, experiment sweeps)
// should Close each kernel when done with it. The kernel remains usable
// after Close; new spawns simply create fresh workers.
func (k *Kernel) Close() {
	for _, w := range k.free {
		w.fn = nil
		w.next()
	}
	k.free = k.free[:0]
}

// resumeAndWait switches to p's coroutine and returns when p parks or
// finishes. It must only be called from kernel context.
func (k *Kernel) resumeAndWait(p *Proc) {
	if p.finished {
		return
	}
	k.curr = p
	done, ok := p.w.next()
	k.curr = nil
	if !ok {
		// The body panicked and its coroutine has ended; drop the
		// worker rather than pooling one in an unknown state.
		p.finished = true
		k.live--
		panic(fmt.Sprintf("sim: process %q panicked at %v: %v", p.Name(), k.now, p.w.panicVal))
	}
	if done {
		p.finished = true
		k.live--
		k.free = append(k.free, p.w)
		return
	}
	k.blocked++
}

// park yields to the kernel until some other party wakes this process.
func (p *Proc) park() {
	if p.k.curr != p {
		panic(fmt.Sprintf(
			"sim: blocking call on process %q from outside its own context: fast handlers and kernel events must not block (sleep, lock, channel ops)",
			p.Name()))
	}
	p.w.yield(false)
}
