//go:build (!linux && !darwin) || race

package heap

// mapArena returns n bytes of Go memory where no anonymous mapping is
// wired up, and under the race detector, which watches only Go's memory;
// Go zeroes them, which the heap does not rely on.
func mapArena(n int) []byte { return make([]byte, n) }

// unmapArena leaves the block to Go's garbage collector.
func unmapArena([]byte) {}
