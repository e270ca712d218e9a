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
// Both register types are state cells (see state.go): StateInto and
// LoadState capture and restore their contents, which is what lets a
// checkpointing engine rewind memory by copy instead of replaying the
// schedule. The free-running hot path never touches that surface.
package shmem

import "sync/atomic"

// Null is the distinguished empty value of a scalar register, matching the
// paper's "initialized to null". Process identifiers and names stored in
// registers are therefore always non-zero.
const Null int64 = 0

// Reg is an atomic single-word read-write register. The zero value is a
// register holding Null.
type Reg struct {
	v atomic.Int64
}

// Peek returns the current contents without charging a step. It is for
// harness-side inspection (assertions, accounting) only — algorithm code must
// go through Proc.Read.
func (r *Reg) Peek() int64 { return r.v.Load() }

// Poke sets the contents without charging a step. It is for harness-side
// initialization only.
func (r *Reg) Poke(v int64) { r.v.Store(v) }

// StateInto implements StateCell.
func (r *Reg) StateInto(s *CellState) { s.word, s.ref = r.v.Load(), nil }

// LoadState implements StateCell.
func (r *Reg) LoadState(s CellState) { r.v.Store(s.word) }

// Ref is an atomic read-write register holding a pointer to a value of type
// T. Writers must treat the pointed-to value as immutable after writing, as
// real hardware registers would copy it. The zero value holds nil, the
// analogue of Null.
type Ref[T any] struct {
	v atomic.Pointer[T]
}

// PeekRef returns the current contents without charging a step (harness use
// only).
func (r *Ref[T]) PeekRef() *T { return r.v.Load() }

// StateInto implements StateCell. The capture holds the pointer as a live
// reference, keeping the snapshot value reachable while any checkpoint that
// might restore it is alive.
func (r *Ref[T]) StateInto(s *CellState) { s.word, s.ref = 0, r.v.Load() }

// LoadState implements StateCell.
func (r *Ref[T]) LoadState(s CellState) {
	p, _ := s.ref.(*T)
	r.v.Store(p)
}

// ReadRef performs a counted atomic read of a pointer register on behalf of
// process p. It is a package function rather than a method because Go does
// not permit type parameters on methods.
func ReadRef[T any](p *Proc, r *Ref[T]) *T {
	p.step(OpRead, r)
	return r.v.Load()
}

// WriteRef performs a counted atomic write of a pointer register on behalf of
// process p. The caller must not mutate *x afterwards.
func WriteRef[T any](p *Proc, r *Ref[T], x *T) {
	p.step(OpWrite, r)
	r.v.Store(x)
}
