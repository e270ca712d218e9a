package main

import (
	"runtime"
	"time"
)

// environment records the context a run was measured in. None of it is
// gated. The two calibration kernels run the same fixed work on every
// commit: the ALU kernel never leaves registers, the memory kernel gathers
// from a table larger than the last-level cache. On a shared machine only the
// memory kernel slows in the contention phases that also slow the workloads,
// so it tells a machine phase from a regression.
func environment() map[string]float64 {
	const trials = 3
	var alu, mem []float64
	table := make([]uint32, calibTableLen)
	for i := range table {
		table[i] = uint32(i) * 2654435761
	}
	for i := 0; i < trials; i++ {
		alu = append(alu, timed(calibALU))
		mem = append(mem, timed(func() { calibMem(table) }))
	}
	return map[string]float64{
		"gomaxprocs":  float64(runtime.GOMAXPROCS(0)),
		"calib_alu_s": median(alu),
		"calib_mem_s": median(mem),
	}
}

const (
	calibALUIters = 1 << 24
	calibTableLen = 1 << 24 // 64 MB of uint32
	calibGathers  = 1 << 22
)

// sink keeps the kernels' results live so the compiler cannot drop them.
var sink uint64

func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// calibALU is a xorshift chain: one dependent register operation after
// another, no memory traffic.
func calibALU() {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < calibALUIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink += x
}

// calibMem gathers from pseudo-random table slots. The loads are
// independent, so the kernel measures the memory system's throughput under
// whatever else shares it.
func calibMem(table []uint32) {
	mask := uint64(len(table) - 1)
	var sum uint64
	for i := uint64(0); i < calibGathers; i++ {
		sum += uint64(table[(i*0x9e3779b97f4a7c15)>>20&mask])
	}
	sink += sum
}
