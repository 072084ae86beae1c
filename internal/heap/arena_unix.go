//go:build (linux || darwin) && !race

package heap

import (
	"fmt"
	"syscall"
)

// mapArena returns n bytes of private anonymous memory. The kernel hands
// out its pages on first touch, so a heap pays only for the part of the
// arena it uses. Race builds take arena_other.go instead: the race detector
// checks no access, plain or atomic, outside Go's own memory.
func mapArena(n int) []byte {
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		// Like a failed make: the process is out of address space.
		panic(fmt.Sprintf("heap: mapping a %d-byte arena: %v", n, err))
	}
	return mem
}

// unmapArena returns a mapArena block to the kernel.
func unmapArena(mem []byte) {
	if err := syscall.Munmap(mem); err != nil {
		panic(fmt.Sprintf("heap: unmapping an arena: %v", err))
	}
}
