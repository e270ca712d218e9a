package service

import (
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// LLFixture packages a small long-lived service as a check.Renamer so the
// model checker can walk its complete schedule-and-crash tree: each of n
// "contenders" is a lane fed by its own short stream of sessions
// (acquire → release → reacquire → release for sessionsPer=2) against one
// shared Service. The fixture is the lanes' feeder: Rename runs the lane's
// Body once per session and FrameRename's StreamFrame spawns each session
// through SpawnFrame, starting the next session of the lane's stream in
// between. Both return the lane's last issued packed name, so the one-shot
// Exclusive checker applies verbatim — packed names are globally unique
// across the whole history, not just per generation.
//
// The deep invariants ride on Config.Audit: every bookkeeping transition is
// folded into check.LLVerifier online, and a violation panics inside the
// granted step that caused it, which the checker surfaces as a process-panic
// Violation with the offending schedule. A crashed lane simply stops
// (fail-stop, no driver to reclaim it) — its generation never quiesces and
// its registers are never reused, which is exactly the conservative side of
// the quiescence gate.
//
// The fixture requires the stateless walker (model.WalkerSleepSet): service
// bookkeeping lives outside the engines' register state, so checkpoint/
// restore would rewind registers but not generations. Under stateless
// walking every execution rebuilds the fixture from scratch (fresh Service)
// and bookkeeping is a pure function of the grant sequence.
type LLFixture struct {
	svc     *Service
	lanes   []*Lane
	started []int // sessions started per lane
	per     int   // sessions per lane
}

// NewLLFixture builds the fixture: n lanes over one shard, generations of
// capacity cap, sessionsPer sessions per lane. The configuration is sized
// for exhaustible trees: the firstfit field carries no slack pairs and a
// lost acquire fails rather than retrying (the retry loop multiplies
// execution length; it is exercised by the streaming tests and the churn
// adversaries instead).
func NewLLFixture(algo string, n, cap, sessionsPer int, seed uint64) *LLFixture {
	svc := New(Config{Cap: cap, Algo: algo, Seed: seed, Audit: true, MaxAttempts: 1, FFPairs: cap})
	fx := &LLFixture{svc: svc, lanes: make([]*Lane, n), started: make([]int, n), per: sessionsPer}
	for i := range fx.lanes {
		fx.lanes[i] = NewLane(svc, nil)
	}
	// Start every lane's first session in pid order — a deterministic
	// construction-time join, before any process is spawned.
	for i := range fx.lanes {
		fx.startNext(i, 0)
	}
	return fx
}

// startNext starts lane i's next session, if its stream has one, and
// reports whether it did. Session ids interleave the lanes: lane i's k-th
// session (from 0) is k*n + i + 1.
func (fx *LLFixture) startNext(i int, steps int64) bool {
	k := fx.started[i]
	if k >= fx.per {
		return false
	}
	fx.started[i]++
	fx.lanes[i].Start(int64(k*len(fx.lanes)+i+1), steps)
	return true
}

// Rename implements check.Renamer: contender orig is lane orig-1; the lane
// runs its whole session stream and reports its last session's outcome.
func (fx *LLFixture) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	i := int(orig - 1)
	ln := fx.lanes[i]
	ln.Body(p)
	for fx.startNext(i, p.Steps()) {
		ln.Body(p)
	}
	if ln.Done > 0 && ln.Acquired {
		return ln.Name().Int(), true
	}
	return 0, false
}

// MaxName implements check.Renamer. Packed names occupy the full positive
// int64 range by construction (epoch in the high bits), so the bound is
// generous rather than tight; the long-lived invariants are checked by the
// audit, not by name-range accounting.
func (fx *LLFixture) MaxName() int64 { return 1<<62 - 1 }

// Registers implements check.Renamer: the presence rows plus the backends'
// fields of the generations allocated so far (informational).
func (fx *LLFixture) Registers() int {
	fx.svc.mu.Lock()
	defer fx.svc.mu.Unlock()
	regs := 0
	for _, sh := range fx.svc.shards {
		gens := len(sh.pool)
		if sh.cur != nil {
			gens++
		}
		regs += gens * (fx.svc.cfg.Cap + fx.svc.cfg.newBackend().Registers())
	}
	return regs
}

// FrameRename implements vexec.FrameRenamer: the frame compilation of the
// same lane stream.
func (fx *LLFixture) FrameRename(orig int64, dst vexec.Frame) vexec.Frame {
	f := vexec.Rearm[StreamFrame](dst)
	*f = StreamFrame{fx: fx, i: int(orig - 1)}
	return f
}

var _ vexec.FrameRenamer = (*LLFixture)(nil)

// StreamFrame chains lane i's sessions into one frame automaton: spawn the
// current session through SpawnFrame; when it returns, start the next
// session of the lane's stream and spawn again; finish with the last
// session's result. It is the model-checking counterpart of the streaming
// driver's relaunch (which the checker cannot issue — relaunches are
// harness actions, not replayable decisions).
type StreamFrame struct {
	fx      *LLFixture
	i       int
	entered bool
}

func (f *StreamFrame) Run(m *vexec.M, p *shmem.Proc) vexec.Status {
	if f.entered && !f.fx.startNext(f.i, p.Steps()) {
		return m.Return(m.RetI, m.RetB)
	}
	f.entered = true
	return m.Call(f.fx.lanes[f.i].SpawnFrame(p))
}
