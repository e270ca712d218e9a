package vexec

import "repro/internal/sched"

// RunFresh drives the spec to completion on a freshly constructed engine.
func RunFresh(sp BatchSpec) sched.Result {
	_, res := runReusing(nil, sp)
	return res
}

// LaneRoot returns lane pid's root frame, or nil when its stack is empty.
func (e *Exec) LaneRoot(pid int) Frame {
	if len(e.ms[pid].stack) == 0 {
		return nil
	}
	return e.ms[pid].stack[0]
}
