// Command bench measures what the repository benchmark (perfbench, bounded
// by BENCHMARK.json) cannot: the bare per-grant cost of both execution
// engines, the fault-model knob's cost when it is switched off, and the
// long-lived service's names/sec on the vectorized engine against the
// goroutine oracle. It writes one JSON file whose rows all share one type
// (Row) and exits nonzero when a gate (see gates) fails. The file is written
// either way, so a failed gate can be read from it.
//
// Usage:
//
//	go run ./cmd/bench -out bench.json    # full run, both gates enforced
//	go run ./cmd/bench -quick -out -      # CI smoke run, JSON to stdout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// Row is one measurement. Section names the loop that was timed and Name
// the variant within it:
//
//   - controller_step (Name "goroutine") and vexec_step (Name "vexec"): one
//     round-robin decision plus one granted step of N spinning readers; Ops
//     counts the grants of one timed round (see timeGrants). A vexec_step
//     row's Ratio is the controller_step ns/op at the same N over its own:
//     the per-grant price of the goroutine handoff that vexec does without.
//   - fault_model_step: the goroutine grant path on a mixed read/write
//     workload with one fault model armed (Name; "off" never touches the
//     knob, "atomic" arms the zero Model). Ratio is ns/op over the off row's.
//   - churn: the long-lived service on firstfit under the steady churn
//     family, one row per engine (Name); N counts lanes and Ops names
//     acquired. The vexec row's Ratio is its names/sec over the goroutine
//     row's.
type Row struct {
	Section     string  `json:"section"`
	Name        string  `json:"name"`
	N           int     `json:"n"`
	Ops         int64   `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	AcquireP50  int64   `json:"acquire_p50_steps,omitempty"`
	AcquireP99  int64   `json:"acquire_p99_steps,omitempty"`
	Ratio       float64 `json:"ratio,omitempty"`
}

// Report is the whole output file.
type Report struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`
	Rows       []Row  `json:"rows"`
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// variant is one timed loop: build constructs a fresh engine and returns a
// function that grants ops decisions on it, and the engine's teardown.
type variant struct {
	section, name string
	build         func() (run func(ops int64), stop func())
}

// rounds is how many times timeGrants times each variant.
const rounds = 30

// timeGrants times ops grants of each variant at population n and keeps
// each variant's fastest round. The variants are interleaved within each
// round, so slow drift on a shared machine hits them alike. The rounds run
// at GOMAXPROCS=1: with a second P, where the woken goroutine runs varies
// from one controller to the next, and a grant's cost with it by ±10%,
// twice the knob-off contract's margin.
func timeGrants(n int, ops int64, vs []variant) []Row {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rows := make([]Row, len(vs))
	for round := 0; round < rounds; round++ {
		for i, v := range vs {
			run, stop := v.build()
			m0 := mallocs()
			start := time.Now()
			run(ops)
			el := time.Since(start)
			dm := mallocs() - m0
			stop()
			ns := float64(el.Nanoseconds()) / float64(ops)
			if round == 0 || ns < rows[i].NsPerOp {
				rows[i] = Row{
					Section: v.section, Name: v.name, N: n, Ops: ops,
					NsPerOp: ns, OpsPerSec: 1e9 / ns, AllocsPerOp: float64(dm) / float64(ops),
				}
			}
		}
	}
	return rows
}

// controllerLoop builds a goroutine controller over body, with model armed
// unless it is nil, driven by the round-robin iterator policy.
func controllerLoop(n int, model *shmem.Model, body sched.Body) (func(int64), func()) {
	c := sched.NewController(n, nil, body)
	if model != nil {
		c.SetModel(*model)
	}
	rr := &sched.RoundRobin{}
	return func(ops int64) {
		for i := int64(0); i < ops; i++ {
			c.Step(rr.Next(c))
		}
	}, c.Abort
}

// spinReadFrame is the frame compilation of the spinning reader
// (for { p.Read(r) }): post a read, perform it on the next grant, repeat.
type spinReadFrame struct {
	r       *shmem.Reg
	entered bool
}

func (f *spinReadFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.entered {
		p.Read(f.r)
	}
	f.entered = true
	return m.Intend(shmem.OpRead, f.r)
}

// grantRows times the bare grant path of both engines on n spinning readers.
func grantRows(n int, ops int64) []Row {
	var r shmem.Reg
	rows := timeGrants(n, ops, []variant{
		{"controller_step", "goroutine", func() (func(int64), func()) {
			return controllerLoop(n, nil, func(p *shmem.Proc) {
				for {
					p.Read(&r)
				}
			})
		}},
		{"vexec_step", "vexec", func() (func(int64), func()) {
			e := vexec.New(n, nil, func(p *shmem.Proc) vexec.Frame { return &spinReadFrame{r: &r} })
			rr := &sched.RoundRobin{}
			return func(ops int64) {
				for i := int64(0); i < ops; i++ {
					e.Step(rr.Next(e))
				}
			}, func() {}
		}},
	})
	rows[1].Ratio = rows[0].NsPerOp / rows[1].NsPerOp
	return rows
}

// faultRows times the goroutine grant path under each fault model on a mixed
// workload: odd pids write and even pids read, so the weak-register rows
// record a stale window on every overlapping write grant.
func faultRows(n int, ops int64) []Row {
	models := []struct {
		name string
		m    *shmem.Model
	}{
		{"off", nil},
		{"atomic", &shmem.Model{}},
		{"regular", &shmem.Model{Regs: shmem.RegRegular}},
		{"safe", &shmem.Model{Regs: shmem.RegSafe}},
		{"recovery", &shmem.Model{Recovery: true}},
		{"safe+recovery", &shmem.Model{Regs: shmem.RegSafe, Recovery: true}},
		{"opdelay", &shmem.Model{OpDelay: true}},
	}
	var r shmem.Reg
	body := func(p *shmem.Proc) {
		if p.ID()%2 == 1 {
			for {
				p.Write(&r, int64(p.ID()))
			}
		}
		for {
			p.Read(&r)
		}
	}
	vs := make([]variant, len(models))
	for i, m := range models {
		m := m
		vs[i] = variant{"fault_model_step", m.name, func() (func(int64), func()) { return controllerLoop(n, m.m, body) }}
	}
	rows := timeGrants(n, ops, vs)
	for i := range rows {
		rows[i].Ratio = rows[i].NsPerOp / rows[0].NsPerOp
	}
	return rows
}

func main() {
	out := flag.String("out", "", "output JSON path ('-' for stdout); required")
	quick := flag.Bool("quick", false, "fewer grants and sessions, for CI smoke runs; skips the churn gate")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "bench: -out is required (a path, or '-' for stdout)")
		flag.Usage()
		os.Exit(2)
	}

	ops := int64(20_000) // grants per timed round
	sizes := []int{1, 8, 64, 512, 4096}
	if *quick {
		ops = 2_000
		sizes = []int{1, 64, 512}
	}
	rep := Report{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Quick: *quick,
	}
	for _, n := range sizes {
		rep.Rows = append(rep.Rows, grantRows(n, ops)...)
	}
	rep.Rows = append(rep.Rows, faultRows(8, ops)...)
	rep.Rows = append(rep.Rows, churnRows(*quick)...)
	for _, r := range rep.Rows {
		fmt.Fprintf(os.Stderr, "%-16s %-13s n=%-5d %12.1f ns/op %14.0f ops/s %6.2f allocs/op  ratio %.3f\n",
			r.Section, r.Name, r.N, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp, r.Ratio)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		enc = append(enc, '\n')
		if *out == "-" {
			_, err = os.Stdout.Write(enc)
		} else {
			err = os.WriteFile(*out, enc, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	errs := gates(rep.Rows, *quick)
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "bench: gate failed:", err)
	}
	if len(errs) > 0 {
		os.Exit(1)
	}
}
