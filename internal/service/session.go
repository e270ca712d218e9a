package service

import (
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// Lane multiplexes a stream of sessions onto one engine process, one session
// per spawn. Whoever feeds the lane starts a session (Start) and then spawns
// the lane's process: the streaming driver relaunches it on either engine
// (sched.Engine.Relaunch), the proof fixture loops its own per-lane stream.
// The process runs SpawnFrame on the vectorized engine and Body on the
// goroutine engine; both compilations perform the identical access sequence
// per session:
//
//	W pres[slot]=tag          announce (first access; the crash anchor)
//	<one-shot algorithm>      acquire (the backend's own accesses)
//	W pres[slot]=Null         release if won (grant withheld during the
//	                          hold), failure exit if lost — on a loss with
//	                          attempts remaining the lane rejoins a younger
//	                          generation and the sequence restarts at the
//	                          announce
//
// All service bookkeeping (join at session start aside, which the feeder
// performs at a deterministic point between grants) mutates inside granted
// step code, so a lane's bookkeeping is a function of the grant sequence.
//
// Lane fields are written by the session code inside granted steps and read
// by the feeder between grants; the engines serialize the two (vexec runs
// frames on the driving goroutine; the goroutine engine's gate handshake
// orders body code against the decision loop).
type Lane struct {
	svc  *Service
	hold func(sid int64) int64 // sampled hold length in grants

	// Current session.
	sid      int64
	shardID  int
	slot     int
	g        *generation
	attempts int
	name     Name
	holding  bool

	// liveSpawn is set while a spawn of the lane's process runs the current
	// session; a spawn that finds it set is a restart of a crashed
	// incarnation.
	liveSpawn bool

	acquireStart int64

	// Driver-visible session outcome.
	AcquireSteps int64 // local steps the last acquire took (announce included)
	HoldSteps    int64 // sampled hold for the current session
	Done         int64 // sessions completed on this lane
	Acquired     bool  // last completed session acquired (vs finally failed)

	frame sessionFrame
	// af is the backend frame the lane's acquires re-arm (FrameRename's
	// dst): a lane's sessions land on different generations, and so on
	// different backends, over time.
	af vexec.Frame
}

// NewLane builds a lane over svc. hold, when non-nil, samples each session's
// hold length (in grants) from its session id.
func NewLane(svc *Service, hold func(sid int64) int64) *Lane {
	return &Lane{svc: svc, hold: hold}
}

// Start begins a session with identity sid on this lane. steps is the lane
// process's current local step count (acquire cost is measured from it).
// Called by the feeder before it spawns the lane's process — a point the
// grant sequence determines.
func (ln *Lane) Start(sid int64, steps int64) {
	ln.sid = sid
	ln.attempts = 0
	ln.holding = false
	ln.shardID = ln.svc.ShardFor(sid)
	ln.g, ln.slot = ln.svc.join(ln.shardID, sid)
	ln.acquireStart = steps
	if ln.hold != nil {
		ln.HoldSteps = ln.hold(sid)
	} else {
		ln.HoldSteps = 0
	}
}

// InFlight reports whether a session is currently attached to a generation.
func (ln *Lane) InFlight() bool { return ln.g != nil }

// Holding reports whether the current session holds a name (its release
// write is posted but not yet granted).
func (ln *Lane) Holding() bool { return ln.holding }

// Name returns the last issued name (meaningful while Holding or right
// after a released session completes).
func (ln *Lane) Name() Name { return ln.name }

// DriverReclaim releases the lane's in-flight attachment after the driver
// observed the lane's process crash fail-stop (no restart coming). The lane
// becomes idle and can be restarted with a fresh session.
func (ln *Lane) DriverReclaim() {
	if ln.g == nil {
		return
	}
	ln.svc.Reclaim(ln.g, ln.shardID, ln.slot, ln.sid, ln.holding)
	ln.holding = false
	ln.g = nil
	ln.liveSpawn = false
}

// spawned is the spawn prologue both compilations share; it reports whether
// the lane has a session to run. A spawn onto a session that an earlier
// spawn began and never finished is a recovery-model restart of a crashed
// incarnation: its lease is reclaimed and the same session identity rejoins
// fresh on a younger generation. Both engines place a spawn
// deterministically in the grant sequence.
func (ln *Lane) spawned(steps int64) bool {
	if ln.g == nil {
		return false
	}
	if ln.liveSpawn {
		ln.svc.Reclaim(ln.g, ln.shardID, ln.slot, ln.sid, ln.holding)
		ln.holding = false
		ln.attempts = 0
		ln.g, ln.slot = ln.svc.join(ln.shardID, ln.sid)
		ln.acquireStart = steps
	}
	ln.liveSpawn = true
	return true
}

// sessionDone finalizes the current session's lane state (bookkeeping with
// the service already happened in the same granted step).
func (ln *Lane) sessionDone(acquired bool) {
	ln.Done++
	ln.Acquired = acquired
	ln.holding = false
	ln.g = nil
	ln.liveSpawn = false
}

// SpawnFrame is the vexec lane root: it re-arms the lane's retained session
// frame for the session the feeder just started (zero allocations). A lane
// spawned with no session (arrivals gated) gets an immediately finishing
// frame and waits for a relaunch.
func (ln *Lane) SpawnFrame(p *shmem.Proc) vexec.Frame {
	if !ln.spawned(p.Steps()) {
		return idleFrame{}
	}
	ln.frame = sessionFrame{ln: ln}
	return &ln.frame
}

// idleFrame finishes without a single access: the lane had no session to
// run at spawn time.
type idleFrame struct{}

func (idleFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status { return m.Return(0, false) }

// sessionFrame is the frame compilation of one session's lifecycle.
type sessionFrame struct {
	ln *Lane
	pc uint8
}

func (f *sessionFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	ln := f.ln
	switch f.pc {
	case 0: // post the announce write
		f.pc = 1
		return m.Intend(shmem.OpWrite, &ln.g.pres[ln.slot])
	case 1: // perform the announce, enter the algorithm
		p.Write(&ln.g.pres[ln.slot], presTag(ln.slot))
		f.pc = 2
		ln.af = ln.g.backend.FrameRename(int64(ln.slot)+1, ln.af)
		return m.Call(ln.af)
	case 2: // algorithm returned
		if m.RetB {
			ln.AcquireSteps = p.Steps() - ln.acquireStart
			ln.name = ln.svc.won(ln.g, ln.shardID, ln.slot, ln.sid, m.RetI, ln.AcquireSteps)
			ln.holding = true
			f.pc = 3
			return m.Intend(shmem.OpWrite, &ln.g.pres[ln.slot])
		}
		ln.svc.closeForRetry(ln.g, ln.shardID)
		f.pc = 4
		return m.Intend(shmem.OpWrite, &ln.g.pres[ln.slot])
	case 3: // perform the release write
		p.Write(&ln.g.pres[ln.slot], shmem.Null)
		ln.svc.depart(ln.g, ln.shardID, ln.slot, ln.sid, true, true)
		ret := ln.name.Int()
		ln.sessionDone(true)
		return m.Return(ret, true)
	default: // perform the failure-exit write
		p.Write(&ln.g.pres[ln.slot], shmem.Null)
		ln.attempts++
		if ln.attempts < ln.svc.cfg.MaxAttempts {
			ln.svc.depart(ln.g, ln.shardID, ln.slot, ln.sid, false, false)
			ln.g, ln.slot = ln.svc.join(ln.shardID, ln.sid)
			f.pc = 1
			return m.Intend(shmem.OpWrite, &ln.g.pres[ln.slot])
		}
		ln.svc.depart(ln.g, ln.shardID, ln.slot, ln.sid, false, true)
		ln.sessionDone(false)
		return m.Return(0, false)
	}
}

// Body is the goroutine compilation of the lane: the same session lifecycle
// as sessionFrame, one session per run. A lane run with no session returns
// at once, like idleFrame.
func (ln *Lane) Body(p *shmem.Proc) {
	if !ln.spawned(p.Steps()) {
		return
	}
	for {
		p.Write(&ln.g.pres[ln.slot], presTag(ln.slot))
		local, ok := ln.g.backend.Rename(p, int64(ln.slot)+1)
		if ok {
			ln.AcquireSteps = p.Steps() - ln.acquireStart
			ln.name = ln.svc.won(ln.g, ln.shardID, ln.slot, ln.sid, local, ln.AcquireSteps)
			ln.holding = true
			p.Write(&ln.g.pres[ln.slot], shmem.Null)
			ln.svc.depart(ln.g, ln.shardID, ln.slot, ln.sid, true, true)
			ln.sessionDone(true)
			return
		}
		ln.svc.closeForRetry(ln.g, ln.shardID)
		p.Write(&ln.g.pres[ln.slot], shmem.Null)
		ln.attempts++
		if ln.attempts >= ln.svc.cfg.MaxAttempts {
			ln.svc.depart(ln.g, ln.shardID, ln.slot, ln.sid, false, true)
			ln.sessionDone(false)
			return
		}
		ln.svc.depart(ln.g, ln.shardID, ln.slot, ln.sid, false, false)
		ln.g, ln.slot = ln.svc.join(ln.shardID, ln.sid)
	}
}
