package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/conformance"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/xrand"
)

// workload is one benchmark input set. The harness calls setup, then call,
// then result, once per rep; only call is timed as the rep.
type workload interface {
	// setup builds everything the next call consumes. tr is nil on
	// untraced reps; otherwise the built callbacks report through it.
	setup(tr *tracer)
	// call runs the public entry points on the last setup's inputs.
	call()
	// result summarizes the last call.
	result() outcome
}

// outcome is one call's output in the units the metrics share.
type outcome struct {
	decisions int64 // scheduling decisions executed: explore decisions, or driver grants
	names     int64 // names acquired; 0 where the census supplies them
	attempted int64 // checked operations: campaign runs, walked cells, or sessions
	failed    int64 // violating runs, unproven cells, or sessions that exhausted MaxAttempts
	problems  []string
	// sig must repeat exactly across the calls of one run: the seed fixes it.
	sig string
	// pieces splits the call's time into stretches whose work the seed
	// fixes, the same stretches in the same order on every call.
	pieces []time.Duration
	// cells holds prove's whole walk time per cell name.
	cells map[string]time.Duration
	// p50, p99 and max are the acquire-step figures where the call itself
	// reports them (churn); the census supplies them elsewhere.
	p50, p99, max int64
	layers        map[string]float64
}

func caseByName(name string) conformance.Case {
	for _, c := range conformance.Cases() {
		if c.Name == name {
			return c
		}
	}
	panic("perfbench: no conformance case " + name)
}

// sample: one seeded adversary.Explore campaign per (conformance case,
// adversary.All() family) cell at n=16, with the default Seeded strategy
// (which fans out over vexec.RunBatch). Fresh instances and one suite check
// per run, grants only moving forward on both cores; no checkpoints, no race
// analysis, no service.
type sample struct {
	seed  uint64
	cases []conformance.Case
	specs []adversary.Spec // one campaign per (case, family) cell
	outs  []adversary.Outcome
	walls []time.Duration
}

const (
	sampleN    = 16
	sampleRuns = 16 // seeded runs per (case, family) cell
	// sampleCampaignSeed fixes every run's schedule and instance. The
	// benchmark seed instead picks the original names, which leave the
	// decisions and the worst steps of the campaign unchanged: Efficient's
	// worst run alone swings max_steps by over 40% across campaign seeds.
	sampleCampaignSeed = 1
)

func (w *sample) setup(tr *tracer) {
	fams := adversary.All()
	w.specs = w.specs[:0]
	for _, c := range w.cases {
		origs := c.Origs
		for _, f := range fams {
			suite := tr.suite(c.Suite(sampleN, f.Name))
			w.specs = append(w.specs, adversary.Spec{
				Label:    c.Name,
				New:      tr.newFunc(c.New),
				Origs:    func(n int, seed uint64) []int64 { return origs(n, xrand.Mix(seed, w.seed)) },
				Suite:    func(int, string) check.Suite { return suite },
				Ns:       []int{sampleN},
				Families: []adversary.Family{f},
				Runs:     sampleRuns,
				Seed:     sampleCampaignSeed,
			})
		}
	}
}

// call starts every campaign from a collected heap, outside its timed piece,
// so that a piece's time and the heap it peaks at are its own, whatever ran
// before it.
func (w *sample) call() {
	w.outs, w.walls = w.outs[:0], w.walls[:0]
	for _, sp := range w.specs {
		runtime.GC()
		start := time.Now()
		w.outs = append(w.outs, adversary.Explore(sp))
		w.walls = append(w.walls, time.Since(start))
	}
}

func (w *sample) result() outcome {
	o := outcome{pieces: append([]time.Duration(nil), w.walls...)}
	var runs, distinct, pruned, deduped int64
	for _, out := range w.outs {
		runs += int64(out.Runs)
		distinct += int64(out.Distinct)
		pruned += int64(out.Pruned)
		deduped += int64(out.Deduped)
		o.decisions += int64(out.Explored)
		if out.MaxSteps > o.max {
			o.max = out.MaxSteps
		}
		for _, c := range out.Cells {
			o.failed += int64(c.Violating)
		}
		for _, v := range out.Violations {
			o.problems = append(o.problems, v.String())
		}
		o.sig += fmt.Sprintf("%s/%s runs=%d decisions=%d distinct=%d max_steps=%d; ", out.Label, out.Cells[0].Family, out.Runs, out.Explored, out.Distinct, out.MaxSteps)
	}
	o.attempted = runs
	o.layers = map[string]float64{
		"adversary.runs":           float64(runs),
		"adversary.distinct":       float64(distinct),
		"adversary.distinct_ratio": ratio(float64(distinct), float64(runs)),
		"explore.decisions":        float64(o.decisions),
		"explore.pruned":           float64(pruned),
		"explore.deduped":          float64(deduped),
	}
	return o
}

// proveCell is one complete model.Check walk of the prove workload.
type proveCell struct {
	c          conformance.Case
	n, crashes int
}

func (c proveCell) name() string { return fmt.Sprintf("%s-n%d-c%d", c.c.Name, c.n, c.crashes) }

// proveCells: the efficient n=2 cell is the anomaly ROADMAP leaves
// unexplained (a ~1 s walk dominated neither by execution nor by race
// analysis); the other two are short walks whose time goes to the same
// checkpoint, dedup and suite layers at other shapes.
var proveCells = []proveCell{
	{caseByName("efficient"), 2, 1},
	{caseByName("basic"), 5, 4},
	{caseByName("almostadaptive"), 4, 3},
}

// proveSeed is the instance and original-name seed of every walk: the
// conformance table's proof seed. Both change the walked trees (another
// seed's names cost the efficient cell twice the walk), so the benchmark seed
// instead rotates the order the cells are walked in.
const proveSeed = 1

// prove: complete model.Check walks with default options (source-DPOR on
// vexec, one worker). One instance per walk; the time goes to
// checkpoint/restore/hash, dedup, race analysis and one suite check per
// execution.
type prove struct {
	seed    uint64
	cells   []proveCell
	inputs  []proveInput
	reports []model.Report
	walls   []time.Duration
}

type proveInput struct {
	label string
	n     int
	new   func() check.Renamer
	origs []int64
	suite check.Suite
	opt   model.Options
	lap   *lapper
}

func (w *prove) setup(tr *tracer) {
	w.inputs = w.inputs[:0]
	for i := range w.cells {
		cell := w.cells[(i+int(w.seed%uint64(len(w.cells))))%len(w.cells)]
		c, n := cell.c, cell.n
		newR := tr.newFunc(c.New)
		lap := &lapper{}
		w.inputs = append(w.inputs, proveInput{
			label: cell.name(),
			n:     n,
			new:   func() check.Renamer { return newR(n, proveSeed) },
			origs: c.Origs(n, proveSeed),
			suite: append(check.Suite{lap}, tr.suite(c.Suite(n, "model"))...),
			opt:   model.Options{MaxCrashes: cell.crashes},
			lap:   lap,
		})
	}
}

func (w *prove) call() {
	w.reports = w.reports[:0]
	w.walls = w.walls[:0]
	for _, in := range w.inputs {
		// As in sample.call. Here the seed picks which walk ran before: left
		// on the heap, it moved the peak resident set between three levels.
		runtime.GC()
		in.lap.start()
		start := time.Now()
		rep := model.Check(in.label, in.new, in.n, in.origs, in.suite, in.opt)
		w.walls = append(w.walls, time.Since(start))
		in.lap.stop()
		w.reports = append(w.reports, rep)
	}
}

func (w *prove) result() outcome {
	o := outcome{cells: make(map[string]time.Duration, len(w.inputs))}
	for i, in := range w.inputs {
		o.pieces = append(o.pieces, in.lap.laps...)
		o.cells[in.label] = w.walls[i]
	}
	var execs, partial, pruned, deduped, restored, raceEvents int64
	var race time.Duration
	for _, rep := range w.reports {
		o.attempted++
		if !rep.Proven() {
			o.failed++
			msg := "not proven: " + rep.Summary()
			if rep.Violation != nil {
				msg += ": " + rep.Violation.Err.Error()
			}
			o.problems = append(o.problems, msg)
		}
		if rep.Engine != model.EngineVexec {
			// A wrapper that hid vexec.FrameRenamer would silently move the
			// walk onto the goroutine oracle.
			o.problems = append(o.problems, fmt.Sprintf("%s walked on %s, want vexec", rep.Label, rep.Engine))
		}
		o.decisions += int64(rep.Explored)
		execs += int64(rep.Executions)
		partial += int64(rep.Partial)
		pruned += int64(rep.Pruned)
		deduped += int64(rep.Deduped)
		restored += int64(rep.Restored)
		raceEvents += int64(rep.RaceEvents)
		race += rep.RaceTime
		o.sig += fmt.Sprintf("%s executions=%d partial=%d decisions=%d pruned=%d deduped=%d restored=%d race_events=%d; ",
			rep.Label, rep.Executions, rep.Partial, rep.Explored, rep.Pruned, rep.Deduped, rep.Restored, rep.RaceEvents)
	}
	o.layers = map[string]float64{
		"explore.decisions":            float64(o.decisions),
		"explore.pruned":               float64(pruned),
		"explore.deduped":              float64(deduped),
		"explore.dedup_ratio":          ratio(float64(deduped), float64(execs+partial)),
		"explore.race_events":          float64(raceEvents),
		"explore.race_s":               race.Seconds(),
		"model.executions":             float64(execs),
		"model.partial":                float64(partial),
		"vexec.restores":               float64(restored),
		"vexec.restores_per_execution": ratio(float64(restored), float64(execs)),
	}
	return o
}

// churn and churn_crash: the service's vexec streaming driver over the
// firstfit backend. steady allocates nothing per session, so its time goes
// to engine grants and generation join/recycle bookkeeping; crashnorelease
// adds lease reclaim and lane relaunch on the same layers.
type churn struct {
	family string
	seed   uint64
	d      *service.Driver
	m      service.Metrics
	wall   time.Duration
}

const (
	churnShards   = 4
	churnLanes    = 64
	churnCap      = 8
	churnSessions = 100_000
	// auditSessions is the scale of the untimed audited pass: the audit
	// allocates per event, so it checks the same workload shape smaller.
	auditSessions = 5_000
)

func (w *churn) build(sessions int64, audit bool) (*service.Service, *service.Driver) {
	fam, err := adversary.ChurnByName(w.family)
	if err != nil {
		panic(err)
	}
	svc := service.New(service.Config{Shards: churnShards, Cap: churnCap, Algo: "firstfit", Seed: w.seed, Audit: audit})
	wl := fam.Workload(w.seed, sessions, churnLanes)
	// Watchdog: no session costs anywhere near 10k grants; a stuck stream
	// fails instead of hanging.
	wl.MaxGrants = 10_000*sessions + 100_000
	return svc, service.NewVexecDriver(svc, wl)
}

func (w *churn) setup(*tracer) { _, w.d = w.build(churnSessions, false) }

func (w *churn) call() {
	start := time.Now()
	w.m = w.d.Run()
	w.wall = time.Since(start)
}

func (w *churn) result() outcome {
	o := churnOutcome(w.m, churnSessions)
	o.pieces = []time.Duration{w.wall}
	return o
}

func churnOutcome(m service.Metrics, sessions int64) outcome {
	st := m.Stats
	o := outcome{
		decisions: m.Grants,
		names:     st.Issued,
		attempted: m.Sessions,
		failed:    m.Failed,
		p50:       m.AcquireP50,
		p99:       m.AcquireP99,
		max:       m.AcquireMax,
		sig: fmt.Sprintf("acquired=%d failed=%d crashed=%d grants=%d p50=%d p99=%d max=%d stats=%+v",
			m.Acquired, m.Failed, m.Crashed, m.Grants, m.AcquireP50, m.AcquireP99, m.AcquireMax, st),
	}
	if m.Sessions != sessions {
		o.problems = append(o.problems, fmt.Sprintf("processed %d of %d sessions", m.Sessions, sessions))
	}
	if st.Issued != st.Released+st.Reclaimed {
		o.problems = append(o.problems, fmt.Sprintf("name leak: issued %d != released %d + reclaimed %d", st.Issued, st.Released, st.Reclaimed))
	}
	if st.Reclaimed != m.Crashed {
		o.problems = append(o.problems, fmt.Sprintf("reclaimed %d leases for %d crashes", st.Reclaimed, m.Crashed))
	}
	o.layers = map[string]float64{
		"service.recycles_per_kname": ratio(1000*float64(st.Recycles), float64(st.Issued)),
		"service.gen_allocs":         float64(st.GenAllocs),
		"service.reclaimed":          float64(st.Reclaimed),
	}
	return o
}

// audit runs the workload once at reduced scale with the service's online
// invariant audit on, and replays the audit record through every long-lived
// checker. The audit reports a breach by panicking inside the step that
// caused it; that becomes a problem here, not a crash of the benchmark.
func (w *churn) audit() (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = outcome{attempted: auditSessions, failed: 1, problems: []string{fmt.Sprintf("audit: %v", r)}}
		}
	}()
	svc, d := w.build(auditSessions, true)
	o = churnOutcome(d.Run(), auditSessions)
	if err := check.LLCheckAll(svc.Record()); err != nil {
		o.problems = append(o.problems, "audit: "+err.Error())
	}
	if n := svc.LiveNames(); n != 0 {
		o.problems = append(o.problems, fmt.Sprintf("audit: %d names live after the stream drained", n))
	}
	return o
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
