package vexec

// LaneRoot returns lane pid's root frame, or nil when its stack is empty.
func (e *Exec) LaneRoot(pid int) Frame {
	if len(e.ms[pid].stack) == 0 {
		return nil
	}
	return e.ms[pid].stack[0]
}
