//go:build (linux || darwin) && !race

package region

import (
	"fmt"
	"syscall"
)

// mapped: regions are private anonymous mappings, whose pages the kernel
// hands out on first touch. Race builds take map_other.go: the race
// detector checks no access, plain or atomic, outside Go's own memory.
const mapped = true

func mapRegion(n int) []byte {
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	check("mapping", mem, err) // like a failed make: out of address space
	return mem
}

func unmapRegion(mem []byte) { check("unmapping", mem, syscall.Munmap(mem)) }

// protect opens or closes a pooled region, keeping its pages resident.
func protect(mem []byte, open bool) {
	prot := syscall.PROT_NONE
	if open {
		prot = syscall.PROT_READ | syscall.PROT_WRITE
	}
	check("protecting", mem, syscall.Mprotect(mem, prot))
}

func check(what string, mem []byte, err error) {
	if err != nil {
		panic(fmt.Sprintf("region: %s %d bytes: %v", what, len(mem), err))
	}
}
