package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap returns an empty slice with room for n values of T in memory
// mapped outside the Go heap, and the function that unmaps it. T must hold
// no pointers.
//
// The clients record every latency of a run. Kept on the heap, those
// records grow the live heap through the run, and with it the garbage
// collector's pacing: the program under test collects less often and so
// speeds up as the run goes on. Over thirty seconds of memo-hot on two
// CPUs, collections fell from about 40 to 27 a second and throughput rose
// with them. Memory the collector neither counts nor scans leaves its
// pacing to the program's own heap. Pages are only backed once written.
func offHeap[T any](n int) ([]T, func(), error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("map %d bytes for samples: %w", size, err)
	}
	s := unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(mem))), n)[:0]
	// Unmapping can only fail for a range that was never mapped.
	return s, func() { _ = syscall.Munmap(mem) }, nil
}
