package heap

// Pretenuring: the one runtime consumer of the lifetime classification.
//
// The static-analysis layer (internal/analysis) classifies every numbered
// allocation site as epoch-local, long-lived, or unknown. The VM hands the
// heap the long-lived sites as a per-site set, and those sites allocate
// straight into the old generation, skipping the nursery and therefore every
// minor-GC evacuation copy the object would otherwise pay (NG2C-style).
// Every other allocation takes the default path.
//
// Placement never changes program semantics: addresses are not program
// values beyond identity, and a pretenured object that dies young is
// ordinary old-generation garbage for the next full collection.
//
// Epoch-local is a class the analysis reports and the heap does not place.
// Freeing an iteration's objects in bulk is sound only when nothing can
// still reach them, and the VM roots every ref-typed register without
// liveness information: a dead register outlives a correct epoch-local
// proof and would leave the collector a dangling root.

// LifetimeConfig carries the classification into the heap.
type LifetimeConfig struct {
	// Pretenure is indexed by allocation-site ID (index 0, the unnumbered
	// site, is never set): sites marked true allocate in the old
	// generation. Nil or empty disables pretenuring. The heap keeps the
	// slice; callers must not modify it afterwards.
	Pretenure []bool
}

// SetLifetimes installs the pretenure set. No thread may be allocating:
// callers are New and the VM's reset between jobs (Reset itself keeps the
// set, like the GC-worker configuration).
func (hp *Heap) SetLifetimes(cfg LifetimeConfig) { hp.pretenure = cfg.Pretenure }

// allocSited is the classification-aware allocation path: one bounds check
// for unsited allocations and heaps without a pretenure set.
func (hp *Heap) allocSited(tc *ThreadCtx, size int, site int32) (Addr, error) {
	if site > 0 && int(site) < len(hp.pretenure) && hp.pretenure[site] {
		tc.pretenured++
		return hp.allocLarge(tc, size)
	}
	return hp.allocRaw(tc, size)
}
