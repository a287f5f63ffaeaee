// Systematic schedule sweeps: bounded model checking of the
// interleavings around a critical window.
//
// A sweep starts from the baseline schedule (Sticky: no preemption
// beyond what blocking forces) and then, for every decision inside
// the window, re-runs the workload with that decision flipped to each
// alternative runnable task — and recurses, up to MaxPreemptions
// forced deviations per schedule. Because a run is a pure function of
// its choice sequence, a deviation prefix replays exactly and the
// explored schedules form a tree rooted at the baseline.
package schedsim

import (
	"fmt"
	"os"
	"strconv"
)

// EnvBudget returns sweep budgets, raised by the environment when the
// MULTICS_SWEEP_SCHEDULES / MULTICS_SWEEP_PREEMPTIONS variables are
// set: the nightly CI tier uses them to explore far more
// interleavings than a commit gate can afford. Unset or unparsable
// variables leave the given defaults unchanged.
func EnvBudget(schedules, preemptions int) (int, int) {
	if v, err := strconv.Atoi(os.Getenv("MULTICS_SWEEP_SCHEDULES")); err == nil && v > 0 {
		schedules = v
	}
	if v, err := strconv.Atoi(os.Getenv("MULTICS_SWEEP_PREEMPTIONS")); err == nil && v > 0 {
		preemptions = v
	}
	return schedules, preemptions
}

// SweepConfig bounds a systematic sweep.
type SweepConfig struct {
	// MaxSchedules bounds the number of distinct schedules executed
	// (default 64). Truncation is reported, never silent.
	MaxSchedules int
	// MaxPreemptions bounds the forced deviations per schedule
	// (default 2): the classic small-preemption-bound heuristic —
	// most interleaving bugs need only one or two preemptions in the
	// window.
	MaxPreemptions int
	// Window selects the decisions eligible for deviation; nil means
	// every decision (usually far too many — filter by Point or
	// Detail, e.g. PointMark "zero-reclaim").
	Window func(Decision) bool
	// Fallback is the strategy used beyond the deviation prefix
	// (default Sticky). RoundRobin keeps retry loops live when the
	// window's recovery path needs the peer to progress.
	Fallback Strategy
}

// SweepReport summarizes a sweep.
type SweepReport struct {
	// Schedules is the number of schedules executed.
	Schedules int
	// WindowDecisions is the number of in-window decisions seen
	// across all schedules; zero means the window never opened and
	// the sweep was vacuous.
	WindowDecisions int
	// Truncated reports that MaxSchedules was reached with deviation
	// prefixes still queued.
	Truncated bool
}

// Sweep explores interleavings around cfg.Window. run must build a
// fresh system and execute one schedule under the given strategy,
// returning any error — an executor Failure or a caller assertion. The
// strategy records every decision it takes, so run must hand it to
// exactly one executor. The first error aborts the sweep and is
// returned wrapped with the deviation prefix that produced it.
func Sweep(cfg SweepConfig, run func(Strategy) error) (SweepReport, error) {
	maxSched := cfg.MaxSchedules
	if maxSched == 0 {
		maxSched = 64
	}
	maxDev := cfg.MaxPreemptions
	if maxDev == 0 {
		maxDev = 2
	}
	type prefix struct {
		choices []int
		depth   int
	}
	queue := []prefix{{nil, 0}}
	seen := map[string]bool{"": true}
	var rep SweepReport
	for len(queue) > 0 {
		if rep.Schedules >= maxSched {
			rep.Truncated = true
			break
		}
		pfx := queue[0]
		queue = queue[1:]
		rec := Record(Replay(pfx.choices, cfg.Fallback))
		err := run(rec)
		rep.Schedules++
		if err != nil {
			return rep, fmt.Errorf("sweep schedule (deviation prefix %v): %w", pfx.choices, err)
		}
		ds := rec.Decisions()
		if pfx.depth >= maxDev {
			for i := len(pfx.choices); i < len(ds); i++ {
				if cfg.Window == nil || cfg.Window(ds[i]) {
					rep.WindowDecisions++
				}
			}
			continue
		}
		// Deviate only at steps beyond this prefix: earlier steps were
		// already expanded when their own prefix ran.
		for i := len(pfx.choices); i < len(ds); i++ {
			d := ds[i]
			if cfg.Window != nil && !cfg.Window(d) {
				continue
			}
			rep.WindowDecisions++
			for alt := 0; alt < len(d.Runnable); alt++ {
				if alt == d.Chosen {
					continue
				}
				choices := make([]int, 0, i+1)
				for j := 0; j < i; j++ {
					choices = append(choices, ds[j].Chosen)
				}
				choices = append(choices, alt)
				key := fmt.Sprint(choices)
				if seen[key] {
					continue
				}
				seen[key] = true
				queue = append(queue, prefix{choices, pfx.depth + 1})
			}
		}
	}
	return rep, nil
}

// A Recorder is a Strategy that keeps the log of every decision its
// inner strategy takes. It is the one decision log: the executor keeps
// none, and hands each decision's Runnable set over in scratch space,
// so the Recorder copies it.
type Recorder struct {
	inner     Strategy
	decisions []Decision
}

// Record wraps inner in a Recorder.
func Record(inner Strategy) *Recorder { return &Recorder{inner: inner} }

// Choose implements Strategy.
func (r *Recorder) Choose(d Decision) int {
	c := r.inner.Choose(d)
	if c < 0 || c >= len(d.Runnable) {
		c = 0
	}
	d.Chosen = c
	d.Runnable = append([]string(nil), d.Runnable...)
	r.decisions = append(r.decisions, d)
	return c
}

// Decisions returns the recorded schedule.
func (r *Recorder) Decisions() []Decision { return r.decisions }
