package mctest

import (
	"fmt"

	"burstmem/internal/memctrl"
	"burstmem/internal/trace"
)

// CheckConservation validates a drained controller run against its recorded
// trace stream, mechanism-independently:
//
//   - the stream is complete (no ring overwrites) and cycle-monotone;
//   - every enqueued access completes exactly once, with matching kind,
//     and nothing completes that was never enqueued;
//   - pool occupancy reconstructed from the stream never exceeds the pool
//     size, and write occupancy never exceeds the write-queue capacity —
//     globally and per channel (per-channel occupancy can never go
//     negative or exceed the global capacities either);
//   - every access stays on the channel it was enqueued to: starts and
//     completions carry the same channel index as the enqueue;
//   - the controller's aggregate statistics agree with the stream, and the
//     per-channel device statistics sum to the stream's command counts;
//   - every channel's mechanism reports nothing pending.
//
// The controller must be drained and its stats must cover the whole traced
// run (no ResetStats in between).
func CheckConservation(tr *trace.Tracer, ctrl *memctrl.Controller) error {
	if tr == nil {
		return fmt.Errorf("conservation: no tracer attached")
	}
	if tr.Dropped() != 0 {
		return fmt.Errorf("conservation: ring overwrote %d events; the oracle needs the complete stream", tr.Dropped())
	}
	if !ctrl.Drained() {
		return fmt.Errorf("conservation: controller not drained")
	}
	cfg := ctrl.Config()

	type lifecycle struct {
		ch        uint8
		write     bool
		forwarded bool
		completed bool
	}
	live := make(map[uint64]*lifecycle)
	type chanOcc struct{ reads, writes int }
	var (
		lastCycle    uint64
		lastComplete uint64
		poolReads    int
		poolWrites   int
		completes    uint64
		perChan      = make([]chanOcc, cfg.Geometry.Channels)
	)
	events := tr.Events()
	for i, e := range events {
		if e.Cycle < lastCycle {
			return fmt.Errorf("conservation: event %d (%v) at cycle %d after cycle %d — stream not monotone",
				i, e.Kind, e.Cycle, lastCycle)
		}
		lastCycle = e.Cycle
		switch e.Kind {
		case trace.EvEnqueue:
			id, write := e.Arg0, e.Arg1 != 0
			if _, dup := live[id]; dup {
				return fmt.Errorf("conservation: access %d enqueued twice", id)
			}
			if int(e.Chan) >= len(perChan) {
				return fmt.Errorf("conservation: access %d enqueued on channel %d of %d",
					id, e.Chan, len(perChan))
			}
			lc := &lifecycle{ch: e.Chan, write: write}
			live[id] = lc
			// A forwarded read (its EvForward directly follows) bypasses
			// the pool entirely, so it never counts toward occupancy.
			if i+1 < len(events) && events[i+1].Kind == trace.EvForward && events[i+1].Arg0 == id {
				lc.forwarded = true
			} else if write {
				poolWrites++
				perChan[e.Chan].writes++
			} else {
				poolReads++
				perChan[e.Chan].reads++
			}
		case trace.EvForward:
			lc, ok := live[e.Arg0]
			if !ok || lc.write || !lc.forwarded {
				return fmt.Errorf("conservation: forward of %d does not follow its enqueue", e.Arg0)
			}
			if e.Chan != lc.ch {
				return fmt.Errorf("conservation: access %d forwarded on channel %d but enqueued on %d",
					e.Arg0, e.Chan, lc.ch)
			}
		case trace.EvStart:
			lc, ok := live[e.Arg0]
			if !ok {
				return fmt.Errorf("conservation: access %d started but never enqueued", e.Arg0)
			}
			if lc.completed {
				return fmt.Errorf("conservation: access %d started after completing", e.Arg0)
			}
			if lc.forwarded {
				return fmt.Errorf("conservation: forwarded read %d reached the device", e.Arg0)
			}
			if e.Chan != lc.ch {
				return fmt.Errorf("conservation: access %d started on channel %d but enqueued on %d",
					e.Arg0, e.Chan, lc.ch)
			}
		case trace.EvComplete:
			lc, ok := live[e.Arg0]
			if !ok {
				return fmt.Errorf("conservation: access %d completed but never enqueued", e.Arg0)
			}
			if lc.completed {
				return fmt.Errorf("conservation: access %d completed twice", e.Arg0)
			}
			lc.completed = true
			if gotWrite := e.Arg2&trace.FlagWrite != 0; gotWrite != lc.write {
				return fmt.Errorf("conservation: access %d kind flipped between enqueue and complete", e.Arg0)
			}
			if (e.Arg2&trace.FlagForwarded != 0) != lc.forwarded {
				return fmt.Errorf("conservation: access %d forwarding flag mismatch", e.Arg0)
			}
			if e.Chan != lc.ch {
				return fmt.Errorf("conservation: access %d completed on channel %d but enqueued on %d",
					e.Arg0, e.Chan, lc.ch)
			}
			if e.Cycle < lastComplete {
				return fmt.Errorf("conservation: completion of %d at cycle %d before cycle %d",
					e.Arg0, e.Cycle, lastComplete)
			}
			lastComplete = e.Cycle
			completes++
			switch {
			case lc.forwarded:
				// Never occupied the pool.
			case lc.write:
				poolWrites--
				perChan[lc.ch].writes--
			default:
				poolReads--
				perChan[lc.ch].reads--
			}
		}
		if poolWrites > cfg.MaxWrites {
			return fmt.Errorf("conservation: write occupancy %d exceeds capacity %d at cycle %d",
				poolWrites, cfg.MaxWrites, e.Cycle)
		}
		if poolReads+poolWrites > cfg.PoolSize {
			return fmt.Errorf("conservation: pool occupancy %d exceeds size %d at cycle %d",
				poolReads+poolWrites, cfg.PoolSize, e.Cycle)
		}
		if poolReads < 0 || poolWrites < 0 {
			return fmt.Errorf("conservation: negative occupancy (r=%d w=%d) at cycle %d",
				poolReads, poolWrites, e.Cycle)
		}
		for ch := range perChan {
			co := perChan[ch]
			if co.reads < 0 || co.writes < 0 {
				return fmt.Errorf("conservation: negative channel %d occupancy (r=%d w=%d) at cycle %d",
					ch, co.reads, co.writes, e.Cycle)
			}
			if co.writes > cfg.MaxWrites || co.reads+co.writes > cfg.PoolSize {
				return fmt.Errorf("conservation: channel %d occupancy (r=%d w=%d) exceeds capacity at cycle %d",
					ch, co.reads, co.writes, e.Cycle)
			}
		}
	}
	for ch := range perChan {
		if co := perChan[ch]; co.reads != 0 || co.writes != 0 {
			return fmt.Errorf("conservation: channel %d drained with residual occupancy (r=%d w=%d)",
				ch, co.reads, co.writes)
		}
	}
	for id, lc := range live {
		if !lc.completed {
			return fmt.Errorf("conservation: access %d enqueued but never completed", id)
		}
	}
	if uint64(len(live)) != completes {
		return fmt.Errorf("conservation: %d enqueues vs %d completions", len(live), completes)
	}

	// Aggregate stats must agree with the stream...
	st := &ctrl.Stats
	if want := st.AcceptedReads + st.AcceptedWrites; tr.Count(trace.EvEnqueue) != want {
		return fmt.Errorf("conservation: %d enqueue events vs %d accepted accesses",
			tr.Count(trace.EvEnqueue), want)
	}
	if tr.Count(trace.EvForward) != st.ForwardedReads {
		return fmt.Errorf("conservation: %d forward events vs %d forwarded reads",
			tr.Count(trace.EvForward), st.ForwardedReads)
	}
	// ...and the per-channel device stats must sum to the stream's command
	// counts: each non-forwarded access issues exactly one column command.
	var devReads, devWrites uint64
	for i := 0; i < ctrl.Channels(); i++ {
		devReads += ctrl.Channel(i).Stats.Reads
		devWrites += ctrl.Channel(i).Stats.Writes
	}
	if devReads != tr.Count(trace.EvRead) || devWrites != tr.Count(trace.EvWrite) {
		return fmt.Errorf("conservation: channel stats (%d reads, %d writes) vs stream (%d, %d)",
			devReads, devWrites, tr.Count(trace.EvRead), tr.Count(trace.EvWrite))
	}
	if want := st.AcceptedReads - st.ForwardedReads; devReads != want {
		return fmt.Errorf("conservation: %d device reads vs %d pool reads", devReads, want)
	}
	if devWrites != st.AcceptedWrites {
		return fmt.Errorf("conservation: %d device writes vs %d pool writes", devWrites, st.AcceptedWrites)
	}
	for i := 0; i < ctrl.Channels(); i++ {
		if r, w := ctrl.Mechanism(i).Pending(); r != 0 || w != 0 {
			return fmt.Errorf("conservation: channel %d drained with %d reads and %d writes pending", i, r, w)
		}
	}
	return nil
}
