package main

import (
	"repro/internal/adversary"
	"repro/internal/service"
)

// churnRows streams the steady churn family through the long-lived service
// on firstfit, once on the goroutine oracle and once on the vexec driver,
// three rounds each with the engines interleaved, and keeps each engine's
// fastest round. The goroutine runs have fewer sessions (its grant path is
// the slow side); names/sec is a rate, so the two rows still compare.
func churnRows(quick bool) []Row {
	const lanes = 64
	sessions := map[string]int64{"goroutine": 100_000, "vexec": 200_000}
	if quick {
		sessions = map[string]int64{"goroutine": 5_000, "vexec": 20_000}
	}
	fam, err := adversary.ChurnByName("steady")
	if err != nil {
		panic(err)
	}
	rows := make([]Row, 2)
	for round := 0; round < 3; round++ {
		for i, engine := range []string{"goroutine", "vexec"} {
			w := fam.Workload(0x5eed10, sessions[engine], lanes)
			w.MaxGrants = 10_000*sessions[engine] + 100_000 // stuck-run watchdog
			svc := service.New(service.Config{Cap: 8, Algo: "firstfit", Seed: 0x10})
			var d *service.Driver
			if engine == "vexec" {
				d = service.NewVexecDriver(svc, w)
			} else {
				d = service.NewGoroutineDriver(svc, w)
			}
			m0 := mallocs()
			m := d.Run()
			dm := mallocs() - m0
			if m.Acquired == 0 || m.NamesPerSec <= rows[i].OpsPerSec {
				continue
			}
			rows[i] = Row{
				Section: "churn", Name: engine, N: lanes, Ops: m.Acquired,
				NsPerOp: float64(m.Elapsed.Nanoseconds()) / float64(m.Acquired), OpsPerSec: m.NamesPerSec,
				AllocsPerOp: float64(dm) / float64(m.Acquired),
				AcquireP50:  m.AcquireP50, AcquireP99: m.AcquireP99,
			}
		}
	}
	if rows[0].OpsPerSec > 0 {
		rows[1].Ratio = rows[1].OpsPerSec / rows[0].OpsPerSec
	}
	return rows
}
