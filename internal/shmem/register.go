// Package shmem simulates the asynchronous shared-memory model of the paper:
// a set of n crash-prone processes communicating only through atomic
// read-write registers. Each shared-register access by a process is one
// "local step", the unit in which the paper states all time bounds; the
// package charges steps automatically on every Read/Write.
//
// Two kinds of registers are provided. Reg holds a single int64 word and is
// the workhorse for competition protocols (process ids and names are small
// integers, with 0 reserved as the paper's "null"). Ref[T] holds a pointer to
// an immutable snapshot of a larger value and models the paper's registers
// "of arbitrary magnitude" (Section 5) as well as the composite registers of
// the atomic-snapshot construction.
//
// Both register types are versioned state cells (see state.go): writes of
// recording processes (and harness Pokes) bump a version counter, and
// StateInto/LoadState capture and restore the (contents, version) pair,
// which is what lets a checkpointing engine rewind memory by copy instead
// of replaying the schedule. The free-running hot path never touches the
// version machinery.
package shmem

import "sync/atomic"

// Null is the distinguished empty value of a scalar register, matching the
// paper's "initialized to null". Process identifiers and names stored in
// registers are therefore always non-zero.
const Null int64 = 0

// Reg is an atomic single-word read-write register. The zero value is a
// register holding Null at version 0.
type Reg struct {
	v atomic.Int64
	// ver counts writes for the state-capture layer. It is bumped on harness
	// stores (Poke), restores (LoadState), and counted writes of recording
	// processes — never on the free-running hot path, which stays one atomic
	// store per write.
	ver atomic.Uint64
}

// Peek returns the current contents without charging a step. It is for
// harness-side inspection (assertions, accounting) only — algorithm code must
// go through Proc.Read.
func (r *Reg) Peek() int64 { return r.v.Load() }

// Poke sets the contents without charging a step. It is for harness-side
// initialization only.
func (r *Reg) Poke(v int64) {
	r.v.Store(v)
	r.ver.Add(1)
}

// Version returns the number of writes the register has absorbed. Restoring
// a CellState rewinds it, so a restored register is bit-identical to the
// capture — version included.
func (r *Reg) Version() uint64 { return r.ver.Load() }

// StateInto implements StateCell.
func (r *Reg) StateInto(s *CellState) {
	s.word, s.ref, s.ver = r.v.Load(), nil, r.ver.Load()
}

// LoadState implements StateCell.
func (r *Reg) LoadState(s CellState) {
	r.v.Store(s.word)
	r.ver.Store(s.ver)
}

// StateWord implements StateCell: the contents are their own identity.
func (r *Reg) StateWord() uint64 { return uint64(r.v.Load()) }

// Ref is an atomic read-write register holding a pointer to a value of type
// T. Writers must treat the pointed-to value as immutable after writing, as
// real hardware registers would copy it. The zero value holds nil, the
// analogue of Null.
type Ref[T any] struct {
	v     atomic.Pointer[T]
	ver   atomic.Uint64
	stamp atomic.Uint64 // write stamp of the current value (see refStamps)
}

// PeekRef returns the current contents without charging a step (harness use
// only).
func (r *Ref[T]) PeekRef() *T { return r.v.Load() }

// PokeRef sets the contents without charging a step (harness use only).
func (r *Ref[T]) PokeRef(p *T) {
	r.v.Store(p)
	r.ver.Add(1)
	r.stamp.Store(refStamps.Add(1))
}

// Version returns the number of writes the register has absorbed.
func (r *Ref[T]) Version() uint64 { return r.ver.Load() }

// StateInto implements StateCell. The capture holds the pointer as a live
// reference, keeping the snapshot value reachable while any checkpoint that
// might restore it is alive.
func (r *Ref[T]) StateInto(s *CellState) {
	s.word, s.ref, s.ver, s.stamp = 0, r.v.Load(), r.ver.Load(), r.stamp.Load()
}

// LoadState implements StateCell.
func (r *Ref[T]) LoadState(s CellState) {
	p, _ := s.ref.(*T)
	r.v.Store(p)
	r.ver.Store(s.ver)
	r.stamp.Store(s.stamp)
}

// StateWord implements StateCell: the current value's write stamp. Written
// values are immutable and every store takes a fresh never-reused stamp
// (restores put back the captured value's original one), so distinct
// contents always carry distinct words — stamp hashing can only under-merge
// (miss a dedup), never alias two different states, and unlike pointer
// identity it stays sound after abandoned snapshot values are collected and
// their addresses reused.
func (r *Ref[T]) StateWord() uint64 { return r.stamp.Load() }

// ReadRef performs a counted atomic read of a pointer register on behalf of
// process p. It is a package function rather than a method because Go does
// not permit type parameters on methods.
func ReadRef[T any](p *Proc, r *Ref[T]) *T {
	if p.rp.active && p.steps < p.rp.target {
		rec := p.replayRead()
		if !rec.isRef {
			panic("shmem: replay log mismatch: Ref read where a Reg read was recorded")
		}
		v, _ := rec.ref.(*T)
		return v
	}
	p.step(OpRead, r)
	v := r.v.Load()
	if p.recording {
		// The read-history hash folds the value's write stamp: unique per
		// value instance, never reused (pointer addresses are — see
		// refStamps). No concurrent store can run between the load and the
		// stamp read: recording only happens under the lockstep controller,
		// which serializes accesses at step granularity.
		p.record(readRec{ref: v, isRef: true}, r.stamp.Load())
	}
	return v
}

// WriteRef performs a counted atomic write of a pointer register on behalf of
// process p. The caller must not mutate *x afterwards. The version counter
// and write stamp are maintained only under state capture (their sole
// consumer).
func WriteRef[T any](p *Proc, r *Ref[T], x *T) {
	if p.rp.active && p.steps < p.rp.target {
		p.steps++ // memory is already restored; the write must not re-land
		return
	}
	p.step(OpWrite, r)
	r.v.Store(x)
	if p.recording {
		r.ver.Add(1)
		r.stamp.Store(refStamps.Add(1))
	}
}
