package explore

import (
	"fmt"
	"math/bits"

	"repro/internal/sched"
	"repro/internal/shmem"
)

// Tree is the stateless depth-first search over the schedule(-and-crash)
// tree behind the SleepSet strategy. Each execution replays the recorded
// choice prefix on a fresh instance (stateless model checking: nothing but
// the choice stack is retained between executions), then extends it to a
// maximal schedule; Backtrack truncates to the deepest node with an
// unexplored scheduled choice.
//
// Per node the engine keeps a sleep set (Godefroid): after a subtree rooted
// at transition t is fully explored, t goes to sleep for the node's remaining
// branches and stays asleep down any branch whose transitions are all
// independent of it — an execution that would merely reorder t past
// commuting grants is recognized as redundant and pruned. Every enabled
// transition is scheduled at every node, so final-state invariants checked
// on the explored executions hold for every schedule. The frame and sleep-set
// machinery (push, openFrame, childSleep) is shared with the stateful
// SourceDPOR, which schedules per node only a source set grown by race
// analysis.
type Tree struct {
	maxCrashes int // crash-branching cap per execution; 0 = schedule-only
	budget     int // executions (complete + partial) cap; 0 = exhaust the tree

	stack     []frame
	pos       int // replay cursor: next stack index to re-apply
	abandoned bool
	stats     Stats
}

// frame is one node of the current branch: the state after replaying the
// choices of all shallower frames.
type frame struct {
	chosen        Choice       // transition executed from this node on the current branch
	chosenIn      shmem.Intent // its posted op, refreshed each execution (registers are per-instance)
	enabled       uint64       // pending mask at node entry
	doneStep      uint64       // step choices explored or sleep-pruned
	doneCrash     uint64       // crash choices explored or sleep-pruned
	btStep        uint64       // step choices scheduled for exploration
	btCrash       uint64       // crash choices scheduled for exploration
	sleep         []sleepEntry // sleep set at node entry
	crashesBefore int

	// Fault-model branching (zero under the default model). restartable is
	// the crashed-with-budget mask at node entry; restart choices mirror the
	// crash masks. haltBt/haltDone schedule the Halt branch of a node with no
	// pending process but restartable ones — stopping there is itself an
	// adversary decision. staleN[pid] counts the stale alternatives of pid's
	// pending read at node entry and varCur[pid] the next variant to run
	// (0 = fresh); a pid's doneStep bit is set only after its last variant,
	// so weak-register reads branch StaleCount+1 ways.
	restartable uint64
	btRestart   uint64
	doneRestart uint64
	haltBt      bool
	haltDone    bool
	staleN      []uint8
	varCur      []uint8
}

// sleepEntry is one sleeping transition. A step or crash entry's process is
// necessarily still pending wherever the entry is alive (a sleeping process
// never steps, and a dependent grant would have evicted the entry), so the
// posted intent can be refreshed from the live controller on every replay. A
// restart entry's process is crashed and carries no intent.
type sleepEntry struct {
	pid     int
	crash   bool
	restart bool
	in      shmem.Intent
}

// NewSleepSet returns the exhaustive DFS with sleep-set pruning over the
// full schedule-and-crash tree: every enabled grant, and — while fewer than
// maxCrashes crashes have been injected — every crash, is scheduled at every
// node. Unbudgeted (budget 0) it exhausts the tree, which is how
// internal/model proves invariant suites at tiny populations.
func NewSleepSet(budget, maxCrashes int) *Tree {
	return &Tree{budget: budget, maxCrashes: maxCrashes}
}

// Stats implements Strategy.
func (t *Tree) Stats() Stats { return t.stats }

// Next implements Strategy: replay the committed prefix, then extend the
// branch one frontier node at a time.
func (t *Tree) Next(e sched.Engine) Choice {
	if t.pos < len(t.stack) {
		f := &t.stack[t.pos]
		if f.chosen.Restart {
			if !e.CanRestart(f.chosen.Pid) {
				panic(fmt.Sprintf("explore: replay diverged at depth %d: process %d not restartable (non-deterministic body?)", t.pos, f.chosen.Pid))
			}
		} else if !sched.HasBit(e.Pending(), f.chosen.Pid) {
			panic(fmt.Sprintf("explore: replay diverged at depth %d: process %d not pending (non-deterministic body?)", t.pos, f.chosen.Pid))
		}
		// Refresh the intents captured in this frame: register identities are
		// owned by the per-execution instance, so independence checks must
		// always compare this execution's pointers. Restart choices and
		// entries carry no intent (their process is crashed).
		if !f.chosen.Restart {
			f.chosenIn = e.Intent(f.chosen.Pid)
		}
		for i := range f.sleep {
			if !f.sleep[i].restart {
				f.sleep[i].in = e.Intent(f.sleep[i].pid)
			}
		}
		t.pos++
		// The final committed frame always carries the choice Backtrack just
		// picked — a new decision; everything before it is reconstruction.
		if t.pos == len(t.stack) {
			t.stats.Explored++
		} else {
			t.stats.Replayed++
		}
		return f.chosen
	}
	f, parent := push(&t.stack)
	t.stats.Pruned += openFrame(e, f, parent)
	f.btStep = f.enabled
	if t.maxCrashes > 0 && f.crashesBefore < t.maxCrashes {
		f.btCrash = f.enabled
	}
	if !pickNext(f) {
		// Every scheduled transition is asleep: this whole subtree reorders
		// commuting grants of executions explored elsewhere.
		t.stack = t.stack[:len(t.stack)-1]
		t.abandoned = true
		return Abandon
	}
	// Capture the chosen transition's posted op now: childSleep of the next
	// frontier node needs it, and replay only refreshes committed frames.
	if !f.chosen.Restart && f.chosen.Pid >= 0 {
		f.chosenIn = e.Intent(f.chosen.Pid)
	}
	t.pos++
	t.stats.Explored++
	return f.chosen
}

// push extends *stack by one slot and returns it with the slot below it (nil
// at the root). A slot left by a popped frame is handed back as it was, so
// openFrame can reuse the buffers it holds.
func push[T any](stack *[]T) (top, below *T) {
	d := len(*stack)
	if d < cap(*stack) {
		*stack = (*stack)[:d+1]
	} else {
		var zero T
		*stack = append(*stack, zero)
	}
	if d > 0 {
		below = &(*stack)[d-1]
	}
	return &(*stack)[d], below
}

// openFrame fills f, in place, with the frame of a node first reached on the
// current branch, below parent (nil at the root): its pending mask, crash
// count, sleep set and fault-model branching. It reuses the sleep-set and
// stale-variant buffers f still holds from the last frame in its stack slot.
// Sleeping transitions are pre-marked done — exploring one would re-derive a
// schedule already covered under an earlier sibling — and pruned counts them.
func openFrame(e sched.Engine, f, parent *frame) (pruned int) {
	*f = frame{sleep: f.sleep[:0], staleN: f.staleN[:0], varCur: f.varCur[:0]}
	f.enabled = enabledMask(e)
	if parent != nil {
		f.crashesBefore = parent.crashesBefore
		if parent.chosen.Crash {
			f.crashesBefore++
		}
		f.sleep = childSleep(e, parent, f.sleep)
	}
	faultOpen(e, f)
	for _, s := range f.sleep {
		bit := uint64(1) << uint(s.pid)
		if s.restart {
			if f.restartable&bit != 0 && f.doneRestart&bit == 0 {
				f.doneRestart |= bit
				pruned++
			}
			continue
		}
		if f.enabled&bit == 0 {
			continue
		}
		if s.crash {
			if f.doneCrash&bit == 0 {
				f.doneCrash |= bit
				pruned++
			}
		} else if f.doneStep&bit == 0 {
			f.doneStep |= bit
			pruned++
		}
	}
	return pruned
}

// childSleep derives the sleep set of the node reached by parent.chosen:
// inherited entries that are independent of the chosen transition, plus the
// parent's previously explored (or pruned) siblings, filtered the same way.
// All surviving entries belong to processes other than the chosen one, so
// their posted intents are live on the engine. The set is appended to out,
// which must not share a backing array with parent.sleep.
func childSleep(e sched.Engine, parent *frame, out []sleepEntry) []sleepEntry {
	ch, chIn := parent.chosen, parent.chosenIn
	chFault := ch.Crash || ch.Restart
	seen := struct{ step, crash, restart uint64 }{}
	add := func(e sleepEntry) {
		bit := uint64(1) << uint(e.pid)
		switch {
		case e.restart:
			if seen.restart&bit != 0 {
				return
			}
			seen.restart |= bit
		case e.crash:
			if seen.crash&bit != 0 {
				return
			}
			seen.crash |= bit
		default:
			if seen.step&bit != 0 {
				return
			}
			seen.step |= bit
		}
		out = append(out, e)
	}
	for _, e := range parent.sleep {
		if independent(e.pid, e.crash || e.restart, e.in, ch.Pid, chFault, chIn) {
			add(e)
		}
	}
	for m := parent.doneStep; m != 0; m &= m - 1 {
		pid := bits.TrailingZeros64(m)
		if pid == ch.Pid {
			continue // the chosen transition itself, or its same-pid sibling
		}
		in := e.Intent(pid)
		if independent(pid, false, in, ch.Pid, chFault, chIn) {
			add(sleepEntry{pid: pid, in: in})
		}
	}
	for m := parent.doneCrash; m != 0; m &= m - 1 {
		pid := bits.TrailingZeros64(m)
		if pid == ch.Pid {
			continue
		}
		// A crash touches no register: independent of any other-pid choice.
		add(sleepEntry{pid: pid, crash: true})
	}
	for m := parent.doneRestart; m != 0; m &= m - 1 {
		pid := bits.TrailingZeros64(m)
		if pid == ch.Pid {
			continue
		}
		// A restart touches no register either: it only resets its own
		// process's local state, so it commutes with every other-pid choice.
		add(sleepEntry{pid: pid, restart: true})
	}
	return out
}

// Backtrack implements Strategy: count the finished execution, then truncate
// to the deepest node with an unexplored scheduled transition and commit its
// next choice.
func (t *Tree) Backtrack(tr sched.Trace, res sched.Result) bool {
	if t.abandoned {
		t.abandoned = false
		t.stats.Partial++
	} else {
		t.stats.Executions++
	}
	if t.budget > 0 && t.stats.Executions+t.stats.Partial >= t.budget {
		return false
	}
	for i := len(t.stack) - 1; i >= 0; i-- {
		f := &t.stack[i]
		if !frameOpen(f) {
			continue
		}
		t.stack = t.stack[:i+1]
		pickNext(f)
		// The committed choice executes as the last prefix event of the next
		// execution, where Next counts it as a new decision.
		t.pos = 0
		return true
	}
	t.stats.Complete = true
	return false
}
