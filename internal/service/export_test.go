package service

import (
	"repro/internal/shmem"
	"repro/internal/vexec"
)

// panicBackend stands in for a session the audit stops: its acquires of
// original name orig (0: every acquire) panic with msg, on both engines,
// inside the granted step as an audit breach does. Other acquires run the
// wrapped backend.
type panicBackend struct {
	Backend
	msg  string
	orig int64
}

func (b panicBackend) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	if b.orig == 0 || orig == b.orig {
		panic(b.msg)
	}
	return b.Backend.Rename(p, orig)
}

func (b panicBackend) FrameRename(orig int64, dst vexec.Frame) vexec.Frame {
	if b.orig == 0 || orig == b.orig {
		return panicFrame(b.msg)
	}
	return b.Backend.FrameRename(orig, dst)
}

// panicFrame panics with its message when it first runs.
type panicFrame string

func (f panicFrame) Run(*vexec.M, *shmem.Proc) vexec.Status { panic(string(f)) }

// PanicAlgo is a backend algo for tests outside the package: firstfit whose
// acquires from each generation's first slot panic with PanicMsg.
const (
	PanicAlgo = "firstfit-panic"
	PanicMsg  = "test backend: slot 0 acquire stopped"
)

// dupBackend is a broken backend: its acquires of original names 1 and 2
// both return local name 1 at once, touching no register, so two contenders
// of one generation can hold the same name. Other acquires run the wrapped
// backend.
type dupBackend struct{ Backend }

func (b dupBackend) Rename(p *shmem.Proc, orig int64) (int64, bool) {
	if orig <= 2 {
		return 1, true
	}
	return b.Backend.Rename(p, orig)
}

func (b dupBackend) FrameRename(orig int64, dst vexec.Frame) vexec.Frame {
	if orig <= 2 {
		return nameOneFrame{}
	}
	return b.Backend.FrameRename(orig, dst)
}

// nameOneFrame returns local name 1 when it first runs.
type nameOneFrame struct{}

func (nameOneFrame) Run(m *vexec.M, _ *shmem.Proc) vexec.Status { return m.Return(1, true) }

// DupAlgo is a backend algo for tests outside the package: firstfit whose
// acquires from each generation's first two slots both get local name 1.
const DupAlgo = "firstfit-dup"

func init() {
	backends[PanicAlgo] = func(c Config) Backend {
		return panicBackend{Backend: backends["firstfit"](c), msg: PanicMsg, orig: 1}
	}
	backends[DupAlgo] = func(c Config) Backend {
		return dupBackend{Backend: backends["firstfit"](c)}
	}
}
