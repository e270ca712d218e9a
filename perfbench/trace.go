package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
)

// tracer wraps the callbacks the layers' public entry points already accept:
// the instance constructor (adversary.Spec.New, model.Check's new) and the
// invariant suite. Constructor time is attributed to the core layer and
// suite time to the check layer, from outside the program. RunBatch builds
// instances on its workers, so the totals are atomic. A nil *tracer wraps
// nothing: untraced reps hand the layers the callbacks unchanged.
type tracer struct {
	constructNs, constructs atomic.Int64
	checkNs, checks         atomic.Int64
	// census, when set, is offered every run the suite checks.
	census *census
}

// newFunc wraps a conformance-style constructor. The wrapped function returns
// the constructor's own value, so interface probes on it (vexec.FrameRenamer)
// resolve exactly as they would unwrapped.
func (t *tracer) newFunc(f func(n int, seed uint64) check.Renamer) func(n int, seed uint64) check.Renamer {
	if t == nil {
		return f
	}
	return func(n int, seed uint64) check.Renamer {
		start := time.Now()
		r := f(n, seed)
		t.constructNs.Add(int64(time.Since(start)))
		t.constructs.Add(1)
		return r
	}
}

// suite wraps every checker of s in a timer that keeps its name, so a
// violation reads exactly as it would through the unwrapped suite.
func (t *tracer) suite(s check.Suite) check.Suite {
	if t == nil {
		return s
	}
	out := make(check.Suite, 0, len(s)+1)
	if t.census != nil {
		out = append(out, t.census)
	}
	for _, c := range s {
		out = append(out, timedChecker{t: t, inner: c})
	}
	return out
}

type timedChecker struct {
	t     *tracer
	inner check.Checker
}

func (c timedChecker) Name() string { return c.inner.Name() }

func (c timedChecker) Check(r *check.Run) error {
	start := time.Now()
	err := c.inner.Check(r)
	c.t.checkNs.Add(int64(time.Since(start)))
	c.t.checks.Add(1)
	return err
}

// lapper is a checker that never fails: it splits a walk into laps of
// lapChecks executions and records how long each lap took. model.Check with
// one worker checks its executions in a fixed order, so lap k of every walk
// of one cell is the same work. Its cost is a counter per execution.
type lapper struct {
	checks int
	last   time.Time
	laps   []time.Duration
}

const lapChecks = 4096

func (l *lapper) Name() string { return "lap" }

func (l *lapper) Check(*check.Run) error {
	l.checks++
	if l.checks%lapChecks == 0 {
		now := time.Now()
		l.laps = append(l.laps, now.Sub(l.last))
		l.last = now
	}
	return nil
}

func (l *lapper) start() {
	l.checks, l.laps, l.last = 0, l.laps[:0], time.Now()
}

// stop closes the last lap, which runs to the end of the walk.
func (l *lapper) stop() { l.laps = append(l.laps, time.Since(l.last)) }

// census is a checker that never fails: it counts, over every run it is
// shown, the names acquired and the local steps each acquiring process took.
// The seed fixes these numbers, so one untimed call per benchmark run takes
// them.
type census struct {
	mu       sync.Mutex
	names    int64
	hist     []int64 // hist[s]: processes that acquired a name after s local steps
	maxSteps int64   // worst per-process steps of any run, acquiring or not
}

func (c *census) Name() string { return "census" }

func (c *census) Check(r *check.Run) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for pid := range r.Names {
		s := r.Res.Steps[pid]
		for int64(len(c.hist)) <= s {
			c.hist = append(c.hist, 0)
		}
		c.hist[s]++
		c.names++
	}
	if m := r.Res.MaxSteps(); m > c.maxSteps {
		c.maxSteps = m
	}
	return nil
}

// histQuantile reads the q-quantile of a step histogram with the rank rule of
// service.Driver's acquire histogram, so every workload's step quantiles mean
// the same thing.
func histQuantile(hist []int64, q float64) int64 {
	var total int64
	for _, n := range hist {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := int64(float64(total-1) * q)
	var seen int64
	for v, n := range hist {
		seen += n
		if seen > rank {
			return int64(v)
		}
	}
	return int64(len(hist) - 1)
}
