package service

import (
	"testing"

	"repro/internal/check"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// leaseHarness drives two single-session lanes on one engine under the
// crash-recovery model, hand-stepping lane grants so the test can place the
// crash exactly at the hold point (release write posted but never granted).
type leaseHarness struct {
	svc   *Service
	lanes []*Lane
	e     sched.Engine
}

func newLeaseHarness(t *testing.T, engine string) *leaseHarness {
	t.Helper()
	// Cap 2 and two immediate joiners: both sessions land on epoch 1, which
	// closes at construction — a crashed holder's rejoin must open epoch 2.
	svc := New(Config{Cap: 2, Algo: "firstfit", Seed: 9, Audit: true, MaxAttempts: 2})
	lanes := []*Lane{NewLane(svc, nil), NewLane(svc, nil)}
	lanes[0].Start(1, 0)
	lanes[1].Start(2, 0)
	h := &leaseHarness{svc: svc, lanes: lanes}
	model := shmem.Model{Recovery: true, MaxRestarts: 2}
	switch engine {
	case "vexec":
		vx := vexec.New(2, nil, func(p *shmem.Proc) vexec.Frame {
			return lanes[p.ID()].SpawnFrame(p)
		})
		vx.SetModel(model)
		h.e = vx
	case "goroutine":
		ctl := sched.NewController(2, nil, func(p *shmem.Proc) {
			lanes[p.ID()].Body(p)
		})
		ctl.SetModel(model)
		t.Cleanup(ctl.Abort)
		h.e = ctl
	default:
		t.Fatalf("unknown engine %q", engine)
	}
	return h
}

// stepUntil grants pid until cond holds (bounded).
func (h *leaseHarness) stepUntil(t *testing.T, pid int, cond func() bool) {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		if cond() {
			return
		}
		h.e.Step(pid)
	}
	t.Fatalf("lane %d never reached the target state", pid)
}

// TestLeaseReclaimRecovery: a holder crashes with its release write posted
// but never granted (the lease), the recovery model restarts its lane, and
// the respawn reclaims the lease exactly once before the same session
// rejoins on a younger epoch. The stale release can never evict the new
// holder: the crash discarded the old incarnation's posted intent, and the
// old generation's registers are recycled only after its last attached
// session departs — never while a name from it is live.
func TestLeaseReclaimRecovery(t *testing.T) {
	for _, engine := range []string{"vexec", "goroutine"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			h := newLeaseHarness(t, engine)
			ln0, ln1 := h.lanes[0], h.lanes[1]

			// Drive lane 0 to its hold: name issued, release write pending.
			h.stepUntil(t, 0, ln0.Holding)
			crashed := ln0.Name()
			if h.svc.Stats().Issued != 1 {
				t.Fatalf("stats after first acquire: %+v", h.svc.Stats())
			}

			// Crash the holder. Its posted release intent is discarded — the
			// engine guarantees a grant to the restarted lane can only execute
			// an operation the new incarnation posted.
			h.e.Crash(0)
			if !h.e.CanRestart(0) {
				t.Fatal("recovery model refused the restart")
			}
			h.e.Restart(0)

			// The respawn reclaimed the lease (exactly once — the audit panics
			// on a double) and rejoined sid 1 on a younger generation.
			st := h.svc.Stats()
			if st.Reclaimed != 1 {
				t.Fatalf("reclaimed %d leases after restart, want 1", st.Reclaimed)
			}
			if !ln0.InFlight() || ln0.Holding() {
				t.Fatal("restarted lane did not rejoin fresh")
			}

			// The reincarnated session acquires again: same (shard, local)
			// space, but a strictly younger epoch — the crashed holder's name
			// is burned, not reissued.
			h.stepUntil(t, 0, ln0.Holding)
			fresh := ln0.Name()
			if fresh.Epoch <= crashed.Epoch {
				t.Fatalf("reacquired epoch %d not younger than crashed epoch %d", fresh.Epoch, crashed.Epoch)
			}
			if fresh.Int() == crashed.Int() {
				t.Fatal("crashed holder's packed name was reissued")
			}

			// The old generation must not recycle while lane 1 is still
			// attached to it — its registers are live history.
			if h.svc.Stats().Recycles != 0 {
				t.Fatal("generation recycled while a session was still attached")
			}

			// Finish both lanes. Lane 1 completes on the old generation; its
			// departure is the quiescence point and the old registers recycle.
			h.stepUntil(t, 1, func() bool { return ln1.Done > 0 })
			if got := h.svc.Stats().Recycles; got != 1 {
				t.Fatalf("recycles after old generation quiesced = %d, want 1", got)
			}
			h.stepUntil(t, 0, func() bool { return ln0.Done > 0 })

			// Exactly one reclaim over the whole history, no leak, clean audit.
			st = h.svc.Stats()
			if st.Reclaimed != 1 {
				t.Fatalf("final reclaim count %d, want exactly 1", st.Reclaimed)
			}
			if st.Issued != st.Released+st.Reclaimed {
				t.Fatalf("leak: issued %d != released %d + reclaimed %d", st.Issued, st.Released, st.Reclaimed)
			}
			if err := check.LLCheckAll(h.svc.Record()); err != nil {
				t.Fatalf("audit violation: %v", err)
			}
			if n := h.svc.LiveNames(); n != 0 {
				t.Fatalf("%d names live at end", n)
			}
		})
	}
}
