package shmem

import "sync"

// fileChunk is the allocation granule of a RegFile. Registers are allocated
// a chunk at a time so that pointers to individual registers remain stable
// as the file grows.
const fileChunk = 1 << 10

// RegFile models the paper's infinite array of dedicated read-write registers
// R1, R2, R3, ... (Section 5). Registers are allocated lazily on first
// access; allocation is not a shared-memory step (the registers conceptually
// pre-exist), only the subsequent Read/Write on the returned register is.
//
// The zero value is an empty file ready for use.
type RegFile struct {
	mu     sync.RWMutex
	chunks [][]Reg
}

// Get returns the register with index i >= 1. It is safe for concurrent use.
func (f *RegFile) Get(i int64) *Reg {
	if i < 1 {
		panic("shmem: RegFile index must be >= 1")
	}
	c, off := int((i-1)/fileChunk), int((i-1)%fileChunk)
	f.mu.RLock()
	if c < len(f.chunks) {
		r := &f.chunks[c][off]
		f.mu.RUnlock()
		return r
	}
	f.mu.RUnlock()

	f.mu.Lock()
	for c >= len(f.chunks) {
		f.chunks = append(f.chunks, make([]Reg, fileChunk))
	}
	r := &f.chunks[c][off]
	f.mu.Unlock()
	return r
}

// Scan calls fn(i, value) for every allocated register index from 1 through
// hi without charging steps. Harness use only (hole accounting in the
// repository experiments).
func (f *RegFile) Scan(hi int64, fn func(i int64, v int64)) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for i := int64(1); i <= hi; i++ {
		c, off := int((i-1)/fileChunk), int((i-1)%fileChunk)
		if c >= len(f.chunks) {
			fn(i, Null)
			continue
		}
		fn(i, f.chunks[c][off].Peek())
	}
}
