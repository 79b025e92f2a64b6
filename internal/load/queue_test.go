package load

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestQueueNext pins the server loop's take-sleep-exit sequence: Next
// returns at most max requests in FIFO order, polls an empty queue
// every poll until a request arrives, serves requests still queued at
// or after until, and returns false only once the queue is empty at or
// after until.
func TestQueueNext(t *testing.T) {
	us := func(n int) sim.Time { return sim.Time(time.Duration(n) * time.Microsecond) }
	k := sim.NewKernel(1)
	var q Queue
	for i := 0; i < 5; i++ {
		q.Push(Request{Key: uint64(i)})
	}
	// Arrives while the server polls the empty queue, before until.
	k.Schedule(us(25), func() { q.Push(Request{Key: 5}) })

	type take struct {
		at    sim.Time
		batch []Request
		ok    bool
	}
	var got []take
	k.Spawn("server", func(p *sim.Proc) {
		for {
			batch, ok := q.Next(p, 2, 10*time.Microsecond, us(30))
			got = append(got, take{p.Now(), batch, ok})
			if !ok {
				return
			}
		}
	})
	// Later pushes must not overwrite batches already handed out.
	k.Schedule(us(50), func() {
		for i := 0; i < 64; i++ {
			q.Push(Request{Key: 100})
		}
	})
	k.Run()

	reqs := func(keys ...uint64) []Request {
		out := make([]Request, len(keys))
		for i, key := range keys {
			out[i].Key = key
		}
		return out
	}
	want := []take{
		{0, reqs(0, 1), true},
		{0, reqs(2, 3), true},
		{0, reqs(4), true},
		// Empty from 0: the server sleeps at 0, 10 and 20 and finds the
		// request pushed at 25 on waking at 30, which is until.
		{us(30), reqs(5), true},
		// Empty at until: exit without sleeping.
		{us(30), nil, false},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("takes:\n got %+v\nwant %+v", got, want)
	}
	if q.pending() != 64 {
		t.Errorf("%d requests pending after the late pushes, want 64", q.pending())
	}
}
