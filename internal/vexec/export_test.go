package vexec

// ForceReplay makes Restore put every moved lane back by catch-up replay,
// the reference path, while on is set.
func (e *Exec) ForceReplay(on bool) { e.replayOnly = on }

// LaneRoot returns lane pid's root frame, or nil when its stack is empty.
func (e *Exec) LaneRoot(pid int) Frame {
	if len(e.ms[pid].stack) == 0 {
		return nil
	}
	return e.ms[pid].stack[0]
}
