package sim

import (
	"fmt"
	"strings"
	"testing"
)

// postScenario runs one process through three calls, each a sleep, some
// work in the slot the sleep wakes in, and a wait: A waits for an event
// its work arms, B's work finds its event fired already, and C sleeps a
// second time after its first stretch of work before it waits. A
// neighbour schedules probes at the instants the process wakes in. With
// folded set the process makes the calls with SleepPost and PostAfter,
// otherwise with Sleep and Wait. It returns the order everything ran in,
// the items dispatched and the process resumes.
func postScenario(folded bool) (log string, events, switches uint64) {
	e := New()
	defer e.Shutdown()
	var notes []string
	note := func(s string) { notes = append(notes, fmt.Sprintf("%v %s", e.Now(), s)) }
	a, b, c := e.NewEvent("a"), e.NewEvent("b"), e.NewEvent("c")
	workA := func() *Event {
		note("A post")
		e.CallAt(e.Now(), func() { note("A probe") })
		e.CallAt(e.Now()+3, a.Trigger)
		return a
	}
	workB := func() *Event {
		note("B post")
		b.Trigger()
		e.CallAt(e.Now(), func() { note("B probe") })
		return b
	}
	workC2 := func() *Event {
		note("C post 2")
		e.CallAt(e.Now()+1, c.Trigger)
		return c
	}
	e.Spawn("p", func(p *Proc) {
		if folded {
			p.SleepPost(5, workA)
			note("A done")
			p.SleepPost(5, workB)
			note("B done")
			p.SleepPost(2, func() *Event {
				note("C post 1")
				p.PostAfter(2, workC2)
				return nil
			})
			note("C done")
			return
		}
		p.Sleep(5)
		p.Wait(workA())
		note("A done")
		p.Sleep(5)
		p.Wait(workB())
		note("B done")
		p.Sleep(2)
		note("C post 1")
		p.Sleep(2)
		p.Wait(workC2())
		note("C done")
	})
	for _, at := range []Time{5, 8, 13, 15, 17} {
		e.CallAt(at, func() { note("neighbour") })
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return strings.Join(notes, "|"), e.Events(), e.Switches()
}

// TestSleepPostKeepsTheSlots: a call made with SleepPost runs its work in
// the slot a Sleep's wake-up would take and resumes the process where
// Wait would, or in the same item when the work's event has fired, so
// the order of everything, the item count and the clock are those of
// Sleep and Wait. Only resumes go: one per call instead of two, and one
// instead of three for the call that sleeps twice.
func TestSleepPostKeepsTheSlots(t *testing.T) {
	procLog, procEvents, procSwitches := postScenario(false)
	log, events, switches := postScenario(true)
	if log != procLog {
		t.Errorf("folded order\n%s\nprocess order\n%s", strings.ReplaceAll(log, "|", "\n"), strings.ReplaceAll(procLog, "|", "\n"))
	}
	if events != procEvents {
		t.Errorf("%d items, process form %d", events, procEvents)
	}
	// The start, then A: 2 -> 1, B: 1 -> 1 (its wait returns at once),
	// C: 3 -> 1.
	if procSwitches != 7 || switches != 4 {
		t.Errorf("%d resumes, process form %d; want 4 and 7", switches, procSwitches)
	}
}

// TestPostWithoutEventPanics: a post that neither returns an event nor
// hands its process to a further post would leave it blocked for good.
func TestPostWithoutEventPanics(t *testing.T) {
	e := New()
	defer e.Shutdown()
	e.Spawn("p", func(p *Proc) {
		p.SleepPost(1, func() *Event { return nil })
	})
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "handed it to no post") {
			t.Errorf("panic %q, want the lost process reported", msg)
		}
	}()
	_ = e.Run()
}
