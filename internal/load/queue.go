package load

import (
	"time"

	"repro/internal/sim"
)

// Queue is a shard's serving queue: an Injector pushes arrivals into
// it and a pool of server processes on the same shard drains it in
// FIFO order. It is shard-local state, touched only in shard context.
type Queue struct {
	reqs []Request
	head int
}

// Push appends r. It is the Injector handler: NewInjector(k, w, q.Push).
func (q *Queue) Push(r Request) { q.reqs = append(q.reqs, r) }

// pending returns the number of queued requests not yet taken.
func (q *Queue) pending() int { return len(q.reqs) - q.head }

// Next takes the next run of at most max requests for p. While the
// queue is empty it returns false if p's clock has reached until, and
// otherwise sleeps poll and looks again. The returned slice aliases the
// queue's buffer, which later pushes never overwrite.
func (q *Queue) Next(p *sim.Proc, max int, poll time.Duration, until sim.Time) ([]Request, bool) {
	for q.pending() == 0 {
		if p.Now() >= until {
			return nil, false
		}
		p.Sleep(poll)
	}
	n := min(q.pending(), max)
	batch := q.reqs[q.head : q.head+n : q.head+n]
	q.head += n
	return batch, true
}
