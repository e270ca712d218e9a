package shmem

import "fmt"

// OpKind distinguishes the two operations of the read-write register model.
type OpKind uint8

// Register operation kinds. Values start at 1 so the zero Intent is
// recognizably invalid.
const (
	OpRead OpKind = iota + 1
	OpWrite
)

// String implements fmt.Stringer for diagnostics.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Intent describes the shared-memory operation a process is about to perform.
// The lower-bound adversary of Theorem 6 schedules processes based on exactly
// this information: whether the enabled operation is a read or a write, and
// which register it targets. Reg is an opaque register identity, comparable
// by pointer equality.
type Intent struct {
	Kind OpKind
	Reg  any
}

// Commutes reports whether the two posted operations commute: executing them
// in either order yields the same memory state and the same values read.
// That holds exactly when they target distinct registers, or both only read
// the same register. Search layers (DPOR, sleep sets) use this to recognize
// schedule prefixes that differ only by reordering commuting grants — the
// partial-order equivalence the paper's adversary cannot tell apart either.
func (a Intent) Commutes(b Intent) bool {
	return a.Reg != b.Reg || (a.Kind == OpRead && b.Kind == OpRead)
}

// Gate is the hook by which a scheduler serializes and observes a process's
// shared-memory steps. Step is called immediately before each register
// access with the access described by intent; it blocks until the scheduler
// grants the step. A Gate signals a crash by panicking with Crash{}, which
// the scheduler's runner recovers; algorithm code never observes it.
type Gate interface {
	Step(pid int, intent Intent)
}

// Crash is the panic payload used to abruptly terminate a crashed process's
// goroutine. It is exported so runners outside this package can recover it.
type Crash struct{}

// Proc is a process's handle to shared memory. Each Proc is owned by exactly
// one goroutine. It charges one local step per register access and threads
// every access through the scheduler gate, if any.
type Proc struct {
	id    int   // process index in [0, n)
	name  int64 // original name, a unique integer >= 1
	steps int64 // local steps taken so far
	gate  Gate  // nil means free-running (no scheduler)

	// Weak-register override (see Model): a scheduler granting a stale read
	// arms the value the read must return instead of the register contents.
	// Never set on the free-running path, so the knob costs one predictable
	// branch per scalar read there.
	staleArm bool
	staleVal int64

	// Crash-recovery bookkeeping (see Model.Recovery): a restarted process
	// keeps its cumulative step count while its body re-runs from scratch.
	restarts int // incarnations spawned beyond the first
}

// NewProc returns a process handle with index id (0-based) and original name
// name (>= 1). Gate may be nil for free-running execution.
func NewProc(id int, name int64, gate Gate) *Proc {
	if name < 1 {
		panic(fmt.Sprintf("shmem: original name %d must be >= 1", name))
	}
	return &Proc{id: id, name: name, gate: gate}
}

// Reset rewinds the handle in place to the state NewProc(id, name, gate)
// would return. Harness use only: batched engines recycle lanes across
// independent runs instead of reallocating every handle.
func (p *Proc) Reset(id int, name int64, gate Gate) {
	if name < 1 {
		panic(fmt.Sprintf("shmem: original name %d must be >= 1", name))
	}
	*p = Proc{id: id, name: name, gate: gate}
}

// ID returns the process index in [0, n).
func (p *Proc) ID() int { return p.id }

// Name returns the process's original name in [1, N].
func (p *Proc) Name() int64 { return p.name }

// Steps returns the number of local steps (shared-register accesses) taken.
func (p *Proc) Steps() int64 { return p.steps }

// AddSteps charges extra local steps without touching memory. It is used by
// components that model a register access performed on the process's behalf.
func (p *Proc) AddSteps(n int64) { p.steps += n }

// step charges one local step for an access to reg, routing through the
// scheduler gate when one is attached. The nil check lives here, before the
// Intent exists, so the free-running path never materializes an Intent: the
// hot loop of RunFree is a step-counter increment plus the atomic register
// access, with nothing escaping to the heap.
func (p *Proc) step(kind OpKind, reg any) {
	if g := p.gate; g != nil {
		g.Step(p.id, Intent{Kind: kind, Reg: reg})
	}
	p.steps++
}

// Read performs a counted atomic read of a scalar register.
func (p *Proc) Read(r *Reg) int64 {
	p.step(OpRead, r)
	v := r.v.Load()
	if p.staleArm {
		// A weak-register grant (sched.StepStale) armed a stale value: the
		// read observes it instead of the current contents.
		v, p.staleArm = p.staleVal, false
	}
	return v
}

// ArmStale installs the value the process's next scalar read returns in place
// of the register contents. It is the weak-register hook for schedulers: the
// driver arms the adversary-chosen stale value immediately before granting
// the read. Harness use only; the flag is consumed by the next Read.
func (p *Proc) ArmStale(v int64) { p.staleArm, p.staleVal = true, v }

// BeginIncarnation marks a crash-recovery restart: the body is about to
// re-run from scratch while the cumulative step count persists.
func (p *Proc) BeginIncarnation() {
	p.restarts++
	p.staleArm = false
}

// Restarts returns how many times the process has been restarted.
func (p *Proc) Restarts() int { return p.restarts }

// Write performs a counted atomic write of a scalar register.
func (p *Proc) Write(r *Reg, v int64) {
	p.step(OpWrite, r)
	r.v.Store(v)
}
