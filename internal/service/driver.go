package service

import (
	"fmt"
	"time"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
	"repro/internal/xrand"
)

// Workload shapes a streaming run: sessions arrive, acquire a name, hold it
// for a sampled lifetime, release it. The churn knobs express the hostile
// families the bench and the adversary package exercise.
type Workload struct {
	// Sessions is the total number of arrivals.
	Sessions int64
	// Lanes is the number of engine processes sessions are multiplexed onto.
	Lanes int
	// Seed derives the sampled holds (see holdSampler); crash picks are not
	// seeded (crashTick takes holders round-robin). Two runs with equal
	// Workload and service config are identical executions.
	Seed uint64
	// HoldMin/HoldMax bound the per-session hold, sampled uniformly in
	// grants of virtual time. Zero both for release-immediately.
	HoldMin, HoldMax int64
	// SpikePeriod/SpikeBurst gate arrivals into bursts: arrival i may not
	// start before virtual time (i/SpikeBurst)*SpikePeriod. Zero for open
	// arrivals. A lane with no startable arrival idles until the driver
	// relaunches it when the next burst opens.
	SpikePeriod, SpikeBurst int64
	// AlignRelease rounds every release up to a multiple of this period —
	// the synchronized-departure family, which empties whole generations at
	// once and hammers the recycle path. Zero for unaligned releases.
	AlignRelease int64
	// CrashEvery crashes a holding lane every this many grants — the
	// crash-without-release family; the crashed session's lease is reclaimed
	// by the driver and its lane relaunched with a fresh arrival. Zero for
	// no crashes.
	CrashEvery int64
	// MaxGrants aborts the run (panic) past this many grants — a watchdog
	// for tests. Zero for no bound.
	MaxGrants int64
}

func (w Workload) normalize() Workload {
	if w.Lanes <= 0 {
		w.Lanes = 1
	}
	if w.HoldMax < w.HoldMin {
		w.HoldMax = w.HoldMin
	}
	if w.SpikePeriod > 0 && w.SpikeBurst <= 0 {
		w.SpikeBurst = int64(w.Lanes)
	}
	return w
}

// holdSampler derives a session's hold deterministically from the workload
// seed and the session id.
func holdSampler(w Workload) func(sid int64) int64 {
	span := uint64(w.HoldMax - w.HoldMin + 1)
	min := w.HoldMin
	seed := w.Seed
	return func(sid int64) int64 {
		return min + int64(xrand.Mix(seed, uint64(sid))%span)
	}
}

// Metrics summarizes a streaming run.
type Metrics struct {
	Engine   string
	Sessions int64 // arrivals fully processed (acquired+released, failed, or crashed)
	Acquired int64 // sessions that acquired and released a name
	Failed   int64 // sessions that exhausted MaxAttempts without a name
	Crashed  int64 // sessions killed by churn (lease reclaimed)
	Grants   int64 // engine grants issued
	Elapsed  time.Duration

	// Acquire latency in local steps (announce + algorithm accesses,
	// retries included), over acquired sessions.
	AcquireP50, AcquireP99, AcquireMax int64

	NamesPerSec float64 // acquired names per wall-clock second
	Stats       Stats   // service counters at the end of the run
}

// histSize bounds the acquire-step histogram; acquires cost at most
// MaxAttempts scans of the backend, well under this for service-sized
// generations. Larger values land in the overflow bucket (counted into Max
// but not the quantiles' resolution).
const histSize = 4096

// Driver streams a Workload through a Service on one engine. It alone
// feeds the lanes: it starts each arrival on an idle lane and relaunches the
// lane's process (sched.Engine.Relaunch), one session per spawn on either
// engine. Construction performs every allocation; Run is the steady loop —
// on the vectorized engine it allocates nothing per session, which the
// regression test in this package pins (the goroutine engine spends one
// goroutine per session).
type Driver struct {
	svc    *Service
	w      Workload
	e      sched.Engine
	engine string   // Metrics.Engine
	pend   []uint64 // e.Pending(), the engine's live pending words
	lanes  []*Lane

	releaseAt []int64
	prevDone  []int64
	hist      []int64

	now        int64
	nextIdx    int64 // arrivals started so far: the next arrival's index, and the last started sid (sids are 1-based)
	crashedCnt int64
	acquired   int64
	failed     int64
	maxAcq     int64
	crashCur   int
	cursor     int
}

// NewVexecDriver builds a streaming driver on the vectorized engine, whose
// lanes run SpawnFrame.
func NewVexecDriver(svc *Service, w Workload) *Driver {
	return newDriver(svc, w, "vexec", func(lanes []*Lane) sched.Engine {
		return vexec.New(len(lanes), nil, func(p *shmem.Proc) vexec.Frame { return lanes[p.ID()].SpawnFrame(p) })
	})
}

// NewGoroutineDriver builds the same streaming run on the goroutine oracle,
// whose lanes run Body.
func NewGoroutineDriver(svc *Service, w Workload) *Driver {
	return newDriver(svc, w, "goroutine", func(lanes []*Lane) sched.Engine {
		return sched.NewController(len(lanes), nil, func(p *shmem.Proc) { lanes[p.ID()].Body(p) })
	})
}

// newDriver builds the lanes, starts the first arrivals on them (lanes whose
// arrival is gated spawn idle and are relaunched when their burst opens),
// and attaches the engine, which spawns every lane.
func newDriver(svc *Service, w Workload, engine string, attach func(lanes []*Lane) sched.Engine) *Driver {
	w = w.normalize()
	d := &Driver{svc: svc, w: w, engine: engine}
	hold := holdSampler(w)
	n := w.Lanes
	d.lanes = make([]*Lane, n)
	for i := range d.lanes {
		d.lanes[i] = NewLane(svc, hold)
	}
	d.releaseAt = make([]int64, n)
	d.prevDone = make([]int64, n)
	d.hist = make([]int64, histSize+1)
	for i := 0; i < n; i++ {
		d.tryStart(i, 0)
	}
	d.e = attach(d.lanes)
	d.pend = d.e.Pending()
	return d
}

// gateAt returns the virtual time before which arrival idx may not start.
func (d *Driver) gateAt(idx int64) int64 {
	if d.w.SpikePeriod <= 0 {
		return 0
	}
	return idx / d.w.SpikeBurst * d.w.SpikePeriod
}

// tryStart hands the next arrival to lane pid if one is available and its
// gate has opened. It reports whether a session was started.
func (d *Driver) tryStart(pid int, steps int64) bool {
	if d.nextIdx >= d.w.Sessions || d.gateAt(d.nextIdx) > d.now {
		return false
	}
	d.nextIdx++
	d.lanes[pid].Start(d.nextIdx, steps) // sids are 1-based
	return true
}

// feed starts the next arrival on idle lane pid, whose process has finished
// or crashed, and relaunches the process on it. It reports whether an
// arrival was startable.
func (d *Driver) feed(pid int) bool {
	if !d.tryStart(pid, d.e.Proc(pid).Steps()) {
		return false
	}
	d.e.Relaunch(pid)
	return true
}

// eligible reports whether pending lane pid may be granted now: it is not a
// holder whose release is still withheld. pick supplies only pending pids.
func (d *Driver) eligible(pid int) bool {
	if d.lanes[pid].Holding() && d.releaseAt[pid] > d.now {
		return false
	}
	return true
}

// pick selects the next lane to grant, round-robin from the cursor over the
// engine's pending set, or -1 when nothing is grantable now.
func (d *Driver) pick() int {
	for pid := sched.NextBit(d.pend, d.cursor); pid >= 0; pid = sched.NextBit(d.pend, pid) {
		if d.eligible(pid) {
			return pid
		}
	}
	for pid := sched.NextBit(d.pend, -1); pid >= 0 && pid <= d.cursor; pid = sched.NextBit(d.pend, pid) {
		if d.eligible(pid) {
			return pid
		}
	}
	return -1
}

// jump advances virtual time to the next event (a withheld release or a
// gated burst) and relaunches any idle lanes whose gate opened. It reports
// whether anything became runnable.
func (d *Driver) jump() bool {
	const inf = int64(1) << 62
	next := int64(inf)
	for pid, ln := range d.lanes {
		if ln.Holding() && d.releaseAt[pid] > d.now && d.releaseAt[pid] < next {
			next = d.releaseAt[pid]
		}
	}
	if d.nextIdx < d.w.Sessions {
		if g := d.gateAt(d.nextIdx); g > d.now && g < next {
			next = g
		}
	}
	if next == inf {
		return false
	}
	d.now = next
	d.refill()
	return true
}

// refill feeds idle lanes while arrivals are startable.
func (d *Driver) refill() {
	for pid, ln := range d.lanes {
		if ln.InFlight() || !(d.e.Done(pid) || d.e.Crashed(pid)) {
			continue
		}
		if !d.feed(pid) {
			return
		}
	}
}

// crashTick kills one holding lane, picked round-robin among the holders
// from crashCur (the seed plays no part in the pick), reclaims its lease,
// and refills the lane with a fresh arrival.
func (d *Driver) crashTick() {
	n := len(d.lanes)
	for k := 0; k < n; k++ {
		pid := (d.crashCur + k) % n
		ln := d.lanes[pid]
		if !ln.Holding() || !sched.HasBit(d.pend, pid) {
			continue // not holding, or crashed or panicked while holding
		}
		d.crashCur = pid + 1
		d.e.Crash(pid)
		ln.DriverReclaim()
		d.crashedCnt++
		d.feed(pid)
		return
	}
}

// observe folds lane pid's post-grant state into the metrics and keeps the
// stream flowing (schedule a fresh hold, relaunch a finished lane).
func (d *Driver) observe(pid int, wasHolding bool) {
	ln := d.lanes[pid]
	if ln.Holding() && !wasHolding {
		// Acquired this grant: record the acquire cost and schedule the
		// release according to the hold (aligned if the family says so).
		st := ln.AcquireSteps
		if st >= histSize {
			d.hist[histSize]++
		} else {
			d.hist[st]++
		}
		if st > d.maxAcq {
			d.maxAcq = st
		}
		rel := d.now + ln.HoldSteps
		if a := d.w.AlignRelease; a > 0 {
			rel = (rel + a - 1) / a * a
		}
		d.releaseAt[pid] = rel
	}
	if ln.Done > d.prevDone[pid] {
		d.prevDone[pid] = ln.Done
		if ln.Acquired {
			d.acquired++
		} else {
			d.failed++
		}
	}
	if !ln.InFlight() && d.e.Done(pid) {
		d.feed(pid)
	}
}

// Run drives the workload to completion and returns the metrics. On the
// vectorized engine the loop allocates nothing per session. A session that
// panics stops its lane; once the loop ends, Run panics with the first
// panicked lane's error (sched.Result.Err).
func (d *Driver) Run() Metrics {
	start := time.Now()
	granted, lastCrash := int64(0), int64(-1)
	for {
		if d.w.CrashEvery > 0 && granted > 0 && granted%d.w.CrashEvery == 0 && granted != lastCrash {
			lastCrash = granted
			d.crashTick()
		}
		pid := d.pick()
		if pid < 0 {
			if !d.jump() {
				break
			}
			continue
		}
		wasHolding := d.lanes[pid].Holding()
		d.e.Step(pid)
		granted++
		d.now++
		d.cursor = pid
		d.observe(pid, wasHolding)
		if d.w.MaxGrants > 0 && granted > d.w.MaxGrants {
			panic(fmt.Sprintf("service: driver exceeded %d grants (stuck workload?)", d.w.MaxGrants))
		}
	}
	elapsed := time.Since(start)
	// A panicked lane (the audit reports a breach that way) drops out of the
	// loop above; surface the first one's error rather than report a run
	// that silently lost its sessions.
	if err := d.e.Result().Err; err != nil {
		panic(err)
	}
	m := Metrics{
		Engine:     d.engine,
		Sessions:   d.acquired + d.failed + d.crashedCnt,
		Acquired:   d.acquired,
		Failed:     d.failed,
		Crashed:    d.crashedCnt,
		Grants:     granted,
		Elapsed:    elapsed,
		AcquireMax: d.maxAcq,
		Stats:      d.svc.Stats(),
	}
	m.AcquireP50 = d.quantile(0.50)
	m.AcquireP99 = d.quantile(0.99)
	if s := elapsed.Seconds(); s > 0 {
		m.NamesPerSec = float64(d.acquired) / s
	}
	return m
}

// quantile reads the q-quantile of acquire steps from the histogram.
func (d *Driver) quantile(q float64) int64 {
	total := int64(0)
	for _, c := range d.hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int64(float64(total-1) * q)
	seen := int64(0)
	for v, c := range d.hist {
		seen += c
		if seen > rank {
			if v == histSize {
				return d.maxAcq
			}
			return int64(v)
		}
	}
	return d.maxAcq
}
