package cluster

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestTaskCancelReturnsRemaining(t *testing.T) {
	k, m := newTestMachine(t, 1, 0)
	var canceled bool
	var remaining time.Duration
	var wokeAt sim.Time
	var task *Task
	k.Spawn("w", func(p *sim.Proc) {
		task = m.Submit(10 * time.Millisecond)
		canceled, remaining = task.Wait(p)
		wokeAt = p.Now()
	})
	k.Schedule(4*sim.Millisecond, func() { task.Cancel() })
	k.Run()
	if !canceled {
		t.Fatal("task not reported canceled")
	}
	if remaining != 6*time.Millisecond {
		t.Errorf("remaining = %v, want 6ms", remaining)
	}
	if wokeAt != 4*sim.Millisecond {
		t.Errorf("waiter woke at %v, want 4ms", wokeAt)
	}
}

func TestTaskCancelUnderSharing(t *testing.T) {
	// Two tasks on one core, each 10ms; cancel one at t=4ms. It ran at
	// 0.5x so 8ms remains. The survivor then speeds up to 1x.
	k, m := newTestMachine(t, 1, 0)
	var rem time.Duration
	var doneSurvivor sim.Time
	var victim *Task
	k.Spawn("victim", func(p *sim.Proc) {
		victim = m.Submit(10 * time.Millisecond)
		_, rem = victim.Wait(p)
	})
	k.Spawn("survivor", func(p *sim.Proc) {
		m.Exec(p, 10*time.Millisecond)
		doneSurvivor = p.Now()
	})
	k.Schedule(4*sim.Millisecond, func() { victim.Cancel() })
	k.Run()
	if rem != 8*time.Millisecond {
		t.Errorf("victim remaining = %v, want 8ms", rem)
	}
	// Survivor: 2ms done by t=4ms, then 8ms at full speed -> t=12ms.
	if doneSurvivor != 12*sim.Millisecond {
		t.Errorf("survivor finished at %v, want 12ms", doneSurvivor)
	}
}

func TestTaskCancelFinishedNoop(t *testing.T) {
	k, m := newTestMachine(t, 1, 0)
	var task *Task
	k.Spawn("w", func(p *sim.Proc) {
		task = m.Submit(time.Millisecond)
		task.Wait(p)
	})
	k.Run()
	task.Cancel() // must not panic or corrupt state
	if task.Canceled() {
		t.Error("finished task reported canceled after late Cancel")
	}
	if m.Runnable() != 0 {
		t.Errorf("Runnable = %d, want 0", m.Runnable())
	}
}

func TestTaskWaitAfterCompletion(t *testing.T) {
	k, m := newTestMachine(t, 1, 0)
	var task *Task
	k.Spawn("submitter", func(p *sim.Proc) {
		task = m.Submit(time.Millisecond)
		p.Sleep(5 * time.Millisecond)
		canceled, _ := task.Wait(p) // already done: returns immediately
		if canceled {
			t.Error("completed task reported canceled")
		}
		if p.Now() != 5*sim.Millisecond {
			t.Errorf("Wait blocked until %v", p.Now())
		}
	})
	k.Run()
}

func TestTaskCancelStalledByReservation(t *testing.T) {
	// With all cores reserved the task makes zero progress; cancel must
	// return the full work.
	k, m := newTestMachine(t, 2, 0)
	m.SetReserved(2)
	var rem time.Duration
	var task *Task
	k.Spawn("w", func(p *sim.Proc) {
		task = m.Submit(7 * time.Millisecond)
		_, rem = task.Wait(p)
	})
	k.Schedule(50*sim.Millisecond, func() { task.Cancel() })
	k.Run()
	if rem != 7*time.Millisecond {
		t.Errorf("remaining = %v, want full 7ms", rem)
	}
}

func TestSubmitIntoReusesRetiredTask(t *testing.T) {
	// One Task storage runs three tasks back to back: a canceled one, a
	// completed one, then one that must not inherit either's state.
	k, m := newTestMachine(t, 1, 0)
	var task Task
	var got []time.Duration
	var doneAt sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		m.SubmitInto(&task, 10*time.Millisecond)
		_, rem := task.Wait(p)
		got = append(got, rem)
		m.SubmitInto(&task, rem)
		_, rem = task.Wait(p)
		got = append(got, rem)
		m.SubmitInto(&task, time.Millisecond)
		if task.Canceled() {
			t.Error("resubmitted task still reports canceled")
		}
		task.Wait(p)
		doneAt = p.Now()
	})
	k.Schedule(4*sim.Millisecond, func() { task.Cancel() })
	k.Run()
	if len(got) != 2 || got[0] != 6*time.Millisecond || got[1] != 0 {
		t.Errorf("remainders = %v, want [6ms 0s]", got)
	}
	if doneAt != 11*sim.Millisecond {
		t.Errorf("last task done at %v, want 11ms", doneAt)
	}
	defer func() {
		if recover() == nil {
			t.Error("SubmitInto on a running task did not panic")
		}
	}()
	m.SubmitInto(&task, time.Millisecond)
	m.SubmitInto(&task, time.Millisecond)
}
