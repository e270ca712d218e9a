// Command perfbench is the repository benchmark. It times the public entry
// points of the layers — adversary.Explore, model.Check and the service's
// vexec streaming driver — on one of four seeded workloads, checks every
// output, and prints the metrics as its last line of standard output:
//
//	perfbench --workload churn --seed 1 --seconds 20 --trace 0
//
// run.sh builds and runs it from the repository root. README.md defines every
// metric and explains the timing statistic.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/conformance"
)

const (
	// setupRepeats is how many times each timed rep builds its inputs; every
	// build is a setup_s sample and the last one is consumed by the call.
	setupRepeats = 8
	// minReps keeps the statistics meaningful when --seconds is tiny.
	minReps = 5
	// rssProbes is how many fresh processes rss_peak_mb is the median of.
	rssProbes = 7
)

func main() {
	name := flag.String("workload", "", "sample, prove, churn or churn_crash")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are derived from")
	seconds := flag.Float64("seconds", 20, "how long the timed reps run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from traced reps")
	probe := flag.Bool("rss-probe", false, "set up and make one call, then exit: a process whose peak resident set rss_peak_mb samples")
	flag.Parse()
	w, err := newWorkload(*name, *seed)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		flag.Usage()
		os.Exit(2)
	}
	if *probe {
		w.setup(nil)
		w.call()
		if o := w.result(); o.failed > 0 || len(o.problems) > 0 {
			fmt.Fprintln(os.Stderr, "perfbench: rss probe failed its checks:", o.problems)
			os.Exit(1)
		}
		return
	}
	res := run(w, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "sample":
		return &sample{seed: seed, cases: conformance.Cases()}, nil
	case "prove":
		return &prove{seed: seed, cells: proveCells}, nil
	case "churn":
		return &churn{family: "steady", seed: seed}, nil
	case "churn_crash":
		return &churn{family: "crashnorelease", seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// rep is one timed call with the measurements taken around it.
type rep struct {
	traced   bool
	wall     time.Duration // the call
	cpu      time.Duration // process CPU time during the call
	gcCPU    float64       // GC CPU seconds during the call
	gcCycles uint64
	out      outcome
	tr       *tracer
}

// checker collects the output checks of every call a run makes.
type checker struct {
	attempted, failed int64
	problems          []string
	first             outcome // the census call's outcome
}

func (c *checker) tally(o outcome) {
	c.attempted += o.attempted
	c.failed += o.failed
	if o.failed == 0 && len(o.problems) > 0 {
		c.failed++ // a failed output check fails at least the call's operations
	}
	c.problems = append(c.problems, o.problems...)
}

// repeat tallies a call after the census call: the seed fixes every count a
// call reports, so each later call must reproduce the census exactly.
func (c *checker) repeat(o outcome) {
	c.tally(o)
	if o.sig != c.first.sig {
		c.tally(outcome{failed: 1, problems: []string{fmt.Sprintf("call differs from the census call:\n  got  %s\n  want %s", o.sig, c.first.sig)}})
	}
}

// run checks the workload, then times reps for d and turns them into the
// result. Untimed first: the peak-RSS probes (untraced runs only), churn's
// audited pass, the census call (it warms caches and lazy set-up, and takes
// the seed-fixed counts and, through the census checker, the names and
// acquire steps of every checked run) and one call whose allocations are
// counted alone.
func run(w workload, name string, seed uint64, d time.Duration, traced bool) result {
	chk := &checker{}
	var rssProbes []float64
	if !traced {
		var err error
		if rssProbes, err = probeRSS(name, seed); err != nil {
			chk.tally(outcome{failed: 1, problems: []string{err.Error()}})
		}
	}
	if c, ok := w.(*churn); ok {
		chk.tally(c.audit())
	}
	cen := &census{}
	w.setup(&tracer{census: cen})
	w.call()
	chk.first = w.result()
	chk.tally(chk.first)

	runtime.GC()
	m0 := readMem()
	w.setup(nil)
	w.call()
	allocMB := float64(readMem()-m0) / 1e6
	chk.repeat(w.result())

	reps, setups := timeReps(w, d, traced, chk)

	for _, p := range chk.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res := result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed}
	env := environment()
	names := acquireSamples(chk.first, cen)
	if traced {
		res.Metrics = layerMetrics(reps, names, env)
	} else {
		res.Metrics = endToEnd(reps, chk.first, cen, median(setups), allocMB, median(rssProbes), chk.attempted, chk.failed)
	}
	info, _ := json.Marshal(map[string]any{
		"workload": name, "seed": seed, "env": env, "reps": len(reps), "setups": len(setups),
		"acquire_samples": names, "rss_probes_mb": rssProbes,
	})
	fmt.Println(string(info))
	return res
}

// timeReps runs reps for d in one loop. Every rep starts from a collected
// heap, as a fresh process would; otherwise the GC cycles a rep pays for
// depend on the garbage the previous rep left. A traced run alternates
// untraced and traced reps, so that the two kinds see the same machine.
func timeReps(w workload, d time.Duration, traced bool, chk *checker) ([]rep, []float64) {
	var reps []rep
	var setups []float64
	start := time.Now()
	for i := 0; i < 2*minReps || time.Since(start) < d; i++ {
		r := rep{traced: traced && i%2 == 1}
		if r.traced {
			r.tr = &tracer{}
		}
		runtime.GC()
		for k := 0; k < setupRepeats; k++ {
			setups = append(setups, timeSetup(w, r.tr))
		}
		g0 := readGC()
		c0 := cpuTime()
		t0 := time.Now()
		w.call()
		r.wall = time.Since(t0)
		r.cpu = cpuTime() - c0
		g1 := readGC()
		r.gcCPU, r.gcCycles = g1.cpu-g0.cpu, g1.cycles-g0.cycles
		r.out = w.result()
		chk.repeat(r.out)
		reps = append(reps, r)
	}
	return reps, setups
}

func timeSetup(w workload, tr *tracer) float64 {
	t0 := time.Now()
	w.setup(tr)
	return time.Since(t0).Seconds()
}

// units of every metric the benchmark reports; BENCHMARK.json lists the same.
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"decisions_per_s":   "1/s",
	"walk_s":            "s",
	"names_per_s":       "1/s",
	"acquire_p50_steps": "count",
	"acquire_p99_steps": "count",
	"max_steps":         "count",
	"alloc_mb":          "MB",
	"rss_peak_mb":       "MB",
	"ok_ratio":          "ratio",
}

// endToEnd turns the untraced reps into the user-facing metrics. walk_s is
// the sum, over the pieces of a call, of each piece's fastest time. The seed
// fixes the work of every piece, so a slower run of a piece is the same work
// slowed by the machine; pieces of a few milliseconds fit into the fast
// windows of a shared machine, where a call of a second would need a whole
// second of them.
func endToEnd(reps []rep, first outcome, cen *census, setupS, allocMB, rssMB float64, attempted, failed int64) map[string]metric {
	walk := fastestPieces(reps)
	names := first.names
	p50, p99, maxSteps := first.p50, first.p99, first.max
	if names == 0 {
		names = cen.names
		p50, p99 = histQuantile(cen.hist, 0.50), histQuantile(cen.hist, 0.99)
	}
	if maxSteps == 0 {
		maxSteps = cen.maxSteps
	}
	v := map[string]float64{
		"setup_s":           setupS,
		"decisions_per_s":   float64(first.decisions) / walk,
		"walk_s":            walk,
		"names_per_s":       float64(names) / walk,
		"acquire_p50_steps": float64(p50),
		"acquire_p99_steps": float64(p99),
		"max_steps":         float64(maxSteps),
		"alloc_mb":          allocMB,
		"rss_peak_mb":       rssMB,
		"ok_ratio":          1 - ratio(float64(failed), float64(attempted)),
	}
	return withUnits(v, endToEndUnits)
}

var layerUnits = map[string]string{
	"vexec.ns_per_decision":             "ns",
	"vexec.grants_per_name":             "ratio",
	"vexec.restores":                    "count",
	"vexec.restores_per_execution":      "ratio",
	"explore.decisions":                 "count",
	"explore.pruned":                    "count",
	"explore.deduped":                   "count",
	"explore.dedup_ratio":               "ratio",
	"explore.race_events":               "count",
	"explore.race_s":                    "s",
	"explore.race_share":                "ratio",
	"model.executions":                  "count",
	"model.partial":                     "count",
	"model.cell_s.efficient-n2-c1":      "s",
	"model.cell_s.basic-n5-c4":          "s",
	"model.cell_s.almostadaptive-n4-c3": "s",
	"adversary.runs":                    "count",
	"adversary.distinct":                "count",
	"adversary.distinct_ratio":          "ratio",
	"adversary.cpu_per_wall":            "ratio",
	"core.construct_s":                  "s",
	"core.constructs":                   "count",
	"check.check_s":                     "s",
	"check.checks":                      "count",
	"service.recycles_per_kname":        "1/kname",
	"service.gen_allocs":                "count",
	"service.reclaimed":                 "count",
	"runtime.gc_cpu_s":                  "s",
	"runtime.gc_cycles":                 "count",
	"trace.overhead_ratio":              "ratio",
	"env.gomaxprocs":                    "count",
	"env.calib_alu_s":                   "s",
	"env.calib_mem_s":                   "s",
}

// layerMetrics reads the per-layer figures off the traced reps (the medians
// of per-rep values; model.cell_s is each cell's fastest traced walk) and
// compares traced with untraced reps by walk_s's statistic. The result line
// names every per-layer metric of BENCHMARK.json; a layer the workload does
// not pass through (the service on prove, the model on churn) reads 0.
func layerMetrics(reps []rep, names int64, env map[string]float64) map[string]metric {
	v := make(map[string]float64, len(layerUnits))
	for k := range layerUnits {
		v[k] = 0
	}
	var traced, plain []rep
	perRep := map[string][]float64{}
	cells := map[string][]float64{}
	for _, r := range reps {
		if !r.traced {
			plain = append(plain, r)
			continue
		}
		traced = append(traced, r)
		construct := time.Duration(r.tr.constructNs.Load())
		checkT := time.Duration(r.tr.checkNs.Load())
		add := func(k string, x float64) { perRep[k] = append(perRep[k], x) }
		for k, x := range r.out.layers {
			add(k, x)
		}
		dec := float64(r.out.decisions)
		add("vexec.ns_per_decision", ratio(float64(r.cpu-construct-checkT), dec))
		add("vexec.grants_per_name", ratio(dec, float64(names)))
		add("adversary.cpu_per_wall", ratio(r.cpu.Seconds(), r.wall.Seconds()))
		add("core.construct_s", construct.Seconds())
		add("core.constructs", float64(r.tr.constructs.Load()))
		add("check.check_s", checkT.Seconds())
		add("check.checks", float64(r.tr.checks.Load()))
		add("runtime.gc_cpu_s", r.gcCPU)
		add("runtime.gc_cycles", float64(r.gcCycles))
		if race, ok := r.out.layers["explore.race_s"]; ok {
			add("explore.race_share", ratio(race, r.wall.Seconds()))
		}
		for k, c := range r.out.cells {
			cells[k] = append(cells[k], c.Seconds())
		}
	}
	for k, xs := range perRep {
		v[k] = median(xs)
	}
	for k, c := range cells {
		v["model.cell_s."+k] = fastest(c)
	}
	v["trace.overhead_ratio"] = ratio(fastestPieces(traced), fastestPieces(plain))
	for k, x := range env {
		v["env."+k] = x
	}
	return withUnits(v, layerUnits)
}

// acquireSamples is the number of acquires the step quantiles are taken
// over: the call's own names, or the census's where the call reports none.
func acquireSamples(first outcome, cen *census) int64 {
	if first.names > 0 {
		return first.names
	}
	return cen.names
}

// fastestPieces sums, over the pieces of a call, each piece's fastest time
// among reps.
func fastestPieces(reps []rep) float64 {
	var pieces [][]float64
	for _, r := range reps {
		for i, p := range r.out.pieces {
			if i == len(pieces) {
				pieces = append(pieces, nil)
			}
			pieces[i] = append(pieces[i], p.Seconds())
		}
	}
	sum := 0.0
	for _, p := range pieces {
		sum += fastest(p)
	}
	return sum
}

func withUnits(v map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(v))
	for k, x := range v {
		u, ok := units[k]
		if !ok {
			panic("perfbench: metric without a unit: " + k)
		}
		out[k] = metric{Value: x, Unit: u}
	}
	return out
}

func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func readMem() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

type gcSample struct {
	cpu    float64
	cycles uint64
}

var gcMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readGC() gcSample {
	metrics.Read(gcMetrics)
	return gcSample{cpu: gcMetrics[0].Value.Float64(), cycles: gcMetrics[1].Value.Uint64()}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probeRSS runs rssProbes fresh processes of the benchmark, one after another,
// each of which sets up and makes one call of the workload, and returns their
// peak resident sets in MB. A child's peak also counts the resident set its
// parent had when it was spawned, so the probes run while this process is
// still at its start-up size, below every child's own peak.
func probeRSS(name string, seed uint64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var mbs []float64
	for i := 0; i < rssProbes; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--rss-probe")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("rss probe: %v", err)
		}
		ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		mbs = append(mbs, float64(ru.Maxrss)*1024/1e6) // Linux reports KiB
	}
	return mbs, nil
}
