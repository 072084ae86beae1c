//go:build (!linux && !darwin) || race

package region

// mapped: regions are Go memory, which Go zeroes (no owner relies on it)
// and Go's collector takes back, so the source pools none of it.
const mapped = false

func mapRegion(n int) []byte     { return make([]byte, n) }
func unmapRegion([]byte)         {}
func protect(mem []byte, _ bool) {}
