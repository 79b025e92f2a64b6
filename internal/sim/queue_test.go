package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestEventQueueOrderProperty drives the event queue with a random mix
// of Schedule, ScheduleTagged, inject and same-instant pushes (from
// outside and from inside running events), interleaved with Step, and
// checks every pop against a reference kept sorted by (time, seq).
// Timestamps come from a narrow window so many events share an
// instant, and heap ties must fall to insertion order.
func TestEventQueueOrderProperty(t *testing.T) {
	type ref struct {
		at  Time
		seq uint64
		id  int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel(seed)
		var pending []ref // reference queue, unordered
		ran := -1         // id of the event the last Step executed
		nextID := 0

		var push func(kind int)
		// record notes an event the kernel just stamped; at is the time
		// it was scheduled for, clamped to now like the kernel does.
		record := func(at Time) int {
			id := nextID
			nextID++
			pending = append(pending, ref{at: max(at, k.now), seq: k.seq, id: id})
			return id
		}
		body := func(id int) {
			ran = id
			// Some events push more work at their own instant or just
			// after, which lands behind queued same-instant events.
			if rng.Intn(3) == 0 {
				push(rng.Intn(4))
			}
		}
		push = func(kind int) {
			at := k.now + Time(rng.Intn(8)) - 1 // past, now, or a few ns ahead
			switch kind {
			case 0:
				var id int
				k.Schedule(at, func() { body(id) })
				id = record(at)
			case 1:
				k.ScheduleTagged(at, func(tag uint64) { body(int(tag)) }, uint64(nextID))
				record(at)
			case 2:
				at = k.now + 1 + Time(rng.Intn(6))
				var id int
				k.inject(at, func() { body(id) })
				id = record(at)
			case 3:
				var id int
				k.Schedule(k.now, func() { body(id) })
				id = record(k.now)
			}
		}

		for op := 0; op < 4000; op++ {
			if rng.Intn(2) == 0 {
				push(rng.Intn(4))
				continue
			}
			if len(pending) == 0 {
				if k.Step() {
					t.Fatalf("seed %d: Step ran an event with the reference queue empty", seed)
				}
				continue
			}
			i := 0
			for j, r := range pending {
				if m := pending[i]; r.at < m.at || r.at == m.at && r.seq < m.seq {
					i = j
				}
			}
			want := pending[i]
			pending = slices.Delete(pending, i, i+1)
			if !k.Step() {
				t.Fatalf("seed %d op %d: queue empty, want event %d at %v", seed, op, want.id, want.at)
			}
			if ran != want.id || k.Now() != want.at {
				t.Fatalf("seed %d op %d: ran event %d at %v, want %d at %v", seed, op, ran, k.Now(), want.id, want.at)
			}
			if k.Pending() != len(pending) {
				t.Fatalf("seed %d op %d: Pending() = %d, reference holds %d", seed, op, k.Pending(), len(pending))
			}
		}
	}
}
