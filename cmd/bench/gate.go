package main

import (
	"errors"
	"fmt"
)

// find returns the first row of section with the given name.
func find(rows []Row, section, name string) (Row, bool) {
	for _, r := range rows {
		if r.Section == section && r.Name == name {
			return r, true
		}
	}
	return Row{}, false
}

// gates checks the rows against the tool's two contracts and returns one
// error per failed gate. A row a gate needs that is missing, or that
// measured nothing, is an error too, never a silent pass.
//
//   - Knob off: arming the zero fault Model must cost under 5% over never
//     touching the knob (fault_model_step atomic against off).
//   - Churn: on full runs the vexec driver must acquire at least 5x the
//     names/sec of the goroutine oracle. Quick runs are too short to hold a
//     ratio, so they check only that both rows exist.
func gates(rows []Row, quick bool) []error {
	var errs []error
	off, okOff := find(rows, "fault_model_step", "off")
	atomic, okAtomic := find(rows, "fault_model_step", "atomic")
	switch {
	case !okOff || !okAtomic || off.NsPerOp <= 0:
		errs = append(errs, errors.New("knob-off gate: fault_model_step needs a measured off row and an atomic row"))
	case atomic.NsPerOp/off.NsPerOp >= 1.05:
		errs = append(errs, fmt.Errorf("knob-off gate: SetModel(zero) costs %.1f%% over never arming the knob (contract: <5%%)",
			(atomic.NsPerOp/off.NsPerOp-1)*100))
	}
	gor, okG := find(rows, "churn", "goroutine")
	vx, okV := find(rows, "churn", "vexec")
	switch {
	case !okG || !okV || gor.OpsPerSec <= 0:
		errs = append(errs, errors.New("churn gate: churn needs a measured goroutine row and a vexec row"))
	case !quick && vx.OpsPerSec < 5*gor.OpsPerSec:
		errs = append(errs, fmt.Errorf("churn gate: vexec names/sec is %.2fx the goroutine oracle's (need >= 5x)",
			vx.OpsPerSec/gor.OpsPerSec))
	}
	return errs
}
