// Package vexec is the vectorized step-function engine: it executes the
// paper's algorithms as explicit frame automata instead of goroutines, so a
// single thread steps thousands of interleaved executions with no gate
// handoffs, no parking and no stacks. Where the goroutine engine
// (sched.Controller) pays a cross-goroutine rendezvous per grant (~0.6 µs,
// the floor recorded by BENCH_PR5.json), a vexec grant is a method call into
// the process's top frame — nanoseconds.
//
// The two engines implement the same seam (sched.Engine) and share the
// decision bookkeeping (sched.Ledger, which each embeds: pending set,
// intents, phases, fingerprint, trace, fault-model windows and restart
// budget), the decision loop (sched.DriveEngine), trace replay
// (sched.ApplyTraceTo) and the fingerprint fold (sched.FoldGrant), so a
// policy, crash plan or recorded trace drives either engine unchanged. What
// differs is how a granted process runs up to its next access: a goroutine
// body behind a gate there, a frame automaton here. The contract is
// bit-identity: same Result and same Fingerprint on every decision sequence.
// The goroutine engine stays the conformance oracle; the differential tests
// in this package enforce the contract over the conformance table,
// randomized traces and the fault models, and so check what the ledger does
// not hold by construction: frame automata against goroutine bodies, crash
// unwinding, respawn and step charging.
//
// This engine alone has first-class execution state (state.go):
// Checkpoint and Restore, the surface the stateful source-DPOR proof walks
// drive. Restore copies each moved lane's saved frames back, so under state
// capture every root frame must be a Cloner.
//
// An algorithm is compiled by hand into a Frame per loop/call structure: a
// resumable state machine whose Run method advances the process's local
// computation from one shared-register access to the next. A deterministic
// body's local state is a function of the values it has read, so this
// compilation is mechanical and loses nothing: the frame fields are exactly
// the live local variables at each access point, the exact step-function
// framing (localState, readValue) → (localState', nextIntent) of the
// asynchronous automata literature.
package vexec

import "repro/internal/shmem"

// Status is a frame's report of why it returned control to the engine.
type Status uint8

const (
	// Yield: the frame posted its next register access via M.Intend; the
	// process is pending until the scheduler grants it.
	Yield Status = iota
	// Call: the frame pushed a child via M.Call; the engine continues with
	// the child immediately (a call is local computation, not an access).
	Call
	// Done: the frame finished. Its return value, if any, was published via
	// M.Return or left in its own fields for the parent to read.
	Done
)

// Frame is one resumable activation record of a compiled algorithm body.
// The engine invokes Run to advance the process; the frame must:
//
//   - on its first invocation, compute up to its first register access and
//     post it (M.Intend), push a child (M.Call), or finish (Done) — no
//     access is performed on entry;
//   - on each invocation that follows a Yield, perform the access it had
//     posted (via the gateless Proc: p.Read/p.Write/shmem.ReadRef/...),
//     which charges the local step exactly as the goroutine engine would,
//     then advance to the next access, call or completion;
//   - on each invocation that follows a child's Done, consume the child's
//     result (M.RetI/M.RetB, or the child's fields when the child is
//     embedded in the frame) and advance likewise.
//
// Exactly one counted access per granted step, performed by the frame that
// posted it — that invariant is what makes step counts and the values read
// bit-identical to the goroutine engine's.
//
// Children are embedded by value in their parents and re-armed between
// calls, so a lane's whole frame stack lives in one object tree hanging
// from its root frame. A root that also implements Cloner can therefore be
// saved and restored as a value (see Exec.Restore).
type Frame interface {
	Run(m *M, p *shmem.Proc) Status
}

// M is a process lane's machine: its frame stack plus the communication
// cells between frames and engine. Frames return values to their parents
// through RetI/RetB (set by Return, read by the parent on its next Run); a
// child that returns more than that leaves it in its own fields, which the
// parent embeds and reads, as a scan frame leaves its view. The engine
// reads the root frame's final RetI/RetB as the lane's result. The stack
// holds pointers into the root's object tree; Restore's copy path saves and
// reloads the stack as it is, since it loads state back into the same
// objects.
type M struct {
	stack  []Frame
	intent *shmem.Intent // the lane's intent slot in the engine's ledger

	// RetI, RetB carry the most recent Done frame's return value (the
	// int64-and-ok shape shared by every Rename in the repository).
	RetI int64
	RetB bool
}

// Intend posts the frame's next register access and yields. The access is
// not performed; the frame performs it itself on its next Run invocation.
func (m *M) Intend(k shmem.OpKind, reg any) Status {
	*m.intent = shmem.Intent{Kind: k, Reg: reg}
	return Yield
}

// Call pushes a child frame; the engine runs it until it finishes, then
// resumes the caller.
func (m *M) Call(f Frame) Status {
	m.stack = append(m.stack, f)
	return Call
}

// Return publishes an (int64, ok) result and finishes the frame.
func (m *M) Return(v int64, ok bool) Status {
	m.RetI, m.RetB = v, ok
	return Done
}

// FrameRenamer is implemented by renaming algorithms that can compile their
// body into a frame automaton: FrameRename(orig) must be the exact frame
// compilation of Rename(p, orig) — same register accesses in the same
// order, same result. Harnesses detect the interface to route work onto
// this engine; the differential tests hold every implementation to the
// bit-identity contract. A stateful proof walk checkpoints the engine, so
// there the returned frame must also be a Cloner.
type FrameRenamer interface {
	FrameRename(orig int64) Frame
}

// Cloner is the copy-restore contract of a lane's root frame: Restore puts
// a lane back by loading its root's saved copy. It is required of every root
// frame of an engine under EnableState, where Checkpoint panics on a root
// without it; engines without state capture never use it.
//
// Save copies the frame's state — every field, including the state of each
// child the frame embeds or owns — into a saved copy and returns it. dst is
// nil or a copy an earlier Save of the same frame type returned, reused
// with its buffers. Load copies a saved copy back into the frame. A saved
// copy is inert (the engine never runs it) and shares no slice that either
// side mutates in place. Pointers, such as a capture's result cells, are
// copied as they are: Restore loads a copy back into the very objects it was
// saved from, so they stay valid.
type Cloner interface {
	Frame
	Save(dst Frame) Frame
	Load(src Frame)
}

// SaveWith is Cloner.Save built from the frame type's copy function:
// copyFrom(dst, src) makes dst a copy of src that shares no buffer either
// mutates in place, reusing dst's buffers. dst is reused when it already is
// a *F. The frame's Load is then copyFrom(f, src).
func SaveWith[F any, P interface {
	*F
	Frame
}](f P, dst Frame, copyFrom func(dst, src P)) Frame {
	d, ok := dst.(P)
	if !ok {
		d = new(F)
	}
	copyFrom(d, f)
	return d
}

// SaveValue is Cloner.Save for frames whose state is plain values, with no
// slice the frame mutates in place: a struct copy. Such a frame's Load is
// the struct copy back.
func SaveValue[F any, P interface {
	*F
	Frame
}](f P, dst Frame) Frame {
	return SaveWith(f, dst, func(d, s P) { *d = *s })
}

// captureFrame adapts the check-harness calling convention to frames: it
// runs the wrapped frame and stores its (name, ok) result through the
// planted pointers, as the goroutine harness body does with
// got[p.ID()], oks[p.ID()] = r.Rename(p, p.Name()).
type captureFrame struct {
	child   Frame
	got     *int64
	ok      *bool
	entered bool
}

// Capture wraps a root frame so its result lands in *got and *ok when the
// lane finishes. The wrapper is a Cloner exactly when child is.
func Capture(child Frame, got *int64, ok *bool) Frame {
	c := captureFrame{child: child, got: got, ok: ok}
	if _, isCl := child.(Cloner); isCl {
		return &clonerCapture{c}
	}
	return &c
}

func (c *captureFrame) Run(m *M, p *shmem.Proc) Status {
	if !c.entered {
		c.entered = true
		return m.Call(c.child)
	}
	*c.got, *c.ok = m.RetI, m.RetB
	return Done
}

// clonerCapture is the capture wrapper of a Cloner child. The child is held
// by pointer, not embedded, so a saved copy owns a saved copy of the child.
type clonerCapture struct{ captureFrame }

func (c *clonerCapture) Save(dst Frame) Frame {
	d, _ := dst.(*clonerCapture)
	if d == nil {
		d = &clonerCapture{}
	}
	d.got, d.ok, d.entered = c.got, c.ok, c.entered
	d.child = c.child.(Cloner).Save(d.child)
	return d
}

func (c *clonerCapture) Load(src Frame) {
	s := src.(*clonerCapture)
	c.entered = s.entered
	c.child.(Cloner).Load(s.child)
}
