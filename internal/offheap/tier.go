package offheap

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// The disk tier extends the page store down one storage level: cold pages
// spill to a file and promote back on access, so a dataset can exceed the
// DRAM the store is allowed to keep resident. Because records are
// self-contained native pages (no object graph, no GC metadata), eviction
// is a PageSize copy, not a serialization pass — "move the data, don't
// serialize it".
//
// A PageRef is valid whichever tier its page is on, and both tiers share
// one record resolution: Bytes, which returns nil for a spilled page. The
// reader that meets nil takes the one slow path, a page fault: Fault (or
// Resident, for a reader holding other records' bytes) reads the body back
// under the page's tierMu, publishes it whole, and the reader resolves
// again. A failed read is returned as an error wrapping ErrPageExhausted,
// so engines walk the degradation ladder they use for memory exhaustion.
// Pages go to disk only while the world is stopped — the heap's safepoint
// protocol, reached through the thread's Parker — and a thread holds record
// bytes only while it runs between two safepoints, so no reader ever sees
// its bytes spilled. The one pin left is a manager's on its bump page,
// which it writes without resolving. Spills run on the thread that crosses
// the high watermark, at an allocation end, a quota check or a fault,
// never on a background goroutine, so a single-threaded run spills and
// promotes on a deterministic schedule.
//
// Lock order: rt.mu → page.tierMu → tier.mu. The victim sweep holds
// tier.mu and TryLocks page.tierMu (reverse order, non-blocking, so it
// cannot deadlock). All spill-file I/O happens under tier.mu. Iteration-end
// release can run on a thread outside the safepoint protocol and still
// serialises with a spill on tierMu.

// TierConfig configures the disk tier (EnableTiering).
type TierConfig struct {
	// Dir is the directory for the spill file (created with
	// os.CreateTemp, removed at Reset/teardown). Empty means os.TempDir.
	Dir string
	// HighWater is the DRAM-resident page count that triggers eviction;
	// LowWater is the count eviction drains down to. A LowWater outside
	// 1..HighWater selects the default hysteresis, half of HighWater.
	HighWater int
	LowWater  int
}

// tier is the disk tier's state: the spill file (fixed PageSize slots,
// pread/pwrite on every platform — bodies are copied under tier.mu either
// way, so a mapping measured no faster: docs/OFFHEAP.md), the slot
// allocator and the eviction candidate list (live resident PageSize pages).
// A spill returns the evicted body to the region source at once, and a
// promotion takes one from it.
type tier struct {
	cfg TierConfig

	mu         sync.Mutex
	file       *os.File
	freeSlots  []int
	nextSlot   int
	candidates []*page
	hand       int // clock hand into candidates

	cSpilled      *obs.Counter
	cPromoted     *obs.Counter
	cSpillBytes   *obs.Counter
	cPromoteBytes *obs.Counter
	// gResident + gDisk == the store's live-page gauge; the watermark and
	// quota checks read gResident.
	gResident     *obs.Gauge
	gDisk         *obs.Gauge
	hSpillStall   *obs.Histogram
	hPromoteStall *obs.Histogram
	cFaultSpill   *obs.Counter
	cFaultLoad    *obs.Counter
}

// EnableTiering attaches a disk tier to the store. Must be called before
// any page is allocated (the candidate list is built from acquires) and
// after SetFaultInjector. Reset tears the tier down again — a reused store
// does not inherit the previous job's tier.
func (rt *Runtime) EnableTiering(cfg TierConfig) error {
	if rt.tier != nil {
		return errors.New("offheap: tiering already enabled")
	}
	if cfg.HighWater <= 0 {
		return errors.New("offheap: tiering needs a positive high watermark")
	}
	if cfg.LowWater <= 0 || cfg.LowWater > cfg.HighWater {
		// Default hysteresis: evict down to half the high watermark so one
		// crossing doesn't immediately re-trigger the evictor.
		cfg.LowWater = max(cfg.HighWater/2, 1)
	}
	if rt.gPagesLive.Load() != 0 {
		return errors.New("offheap: tiering must be enabled before pages are live")
	}
	f, err := os.CreateTemp(cfg.Dir, "spill-*.pages")
	if err != nil {
		return fmt.Errorf("offheap: spill file: %w", err)
	}
	reg := rt.obs
	rt.tier = &tier{
		cfg:           cfg,
		file:          f,
		cSpilled:      reg.Counter(obs.CtrPagesSpilled),
		cPromoted:     reg.Counter(obs.CtrPagesPromoted),
		cSpillBytes:   reg.Counter(obs.CtrSpillBytes),
		cPromoteBytes: reg.Counter(obs.CtrPromoteBytes),
		gResident:     reg.Gauge(obs.GaugePagesResident),
		gDisk:         reg.Gauge(obs.GaugePagesDisk),
		hSpillStall:   reg.Histogram(obs.HistSpillStall, obs.GCPauseBounds),
		hPromoteStall: reg.Histogram(obs.HistPromoteStall, obs.GCPauseBounds),
		cFaultSpill:   reg.Counter(obs.CtrFaultTierSpill),
		cFaultLoad:    reg.Counter(obs.CtrFaultTierLoad),
	}
	return nil
}

// Tiered reports whether the store has a disk tier attached.
func (rt *Runtime) Tiered() bool { return rt.tier != nil }

// Spills returns how many pages the store has spilled so far (zero without
// a tier). The count only grows, and a page leaves DRAM only by a spill, so
// record bytes a thread resolved stay valid for as long as Spills reads the
// same: a caller holding bytes across an allocation, which may spill,
// resolves again only when the count has moved.
func (rt *Runtime) Spills() int64 {
	if t := rt.tier; t != nil {
		return t.cSpilled.Load()
	}
	return 0
}

// Pins returns the number of pins held on the store's pages: one per bump
// page a live manager allocates into. With every manager released it is
// zero — a leaked pin makes a page unevictable for the rest of the run.
// Always zero on an untiered store.
func (rt *Runtime) Pins() int64 {
	var n int64
	for _, p := range *rt.table.Load() {
		n += int64(p.pinned.Load())
	}
	return n
}

// CloseTier detaches the disk tier and removes its spill file: the end of
// a tiered job (Reset calls it too). Pages still spilled lose their bodies,
// so callers first release every page.
func (rt *Runtime) CloseTier() error {
	t := rt.tier
	if t == nil {
		return nil
	}
	rt.tier = nil
	t.mu.Lock()
	defer t.mu.Unlock()
	t.candidates = nil
	return errors.Join(t.file.Close(), os.Remove(t.file.Name()))
}

// --- candidate list (tier.mu held) ---

func (t *tier) addCandidateLocked(p *page) {
	if p.candIdx != -1 {
		return
	}
	p.candIdx = len(t.candidates)
	t.candidates = append(t.candidates, p)
}

func (t *tier) removeCandidateLocked(p *page) {
	i := p.candIdx
	if i < 0 {
		return
	}
	last := len(t.candidates) - 1
	t.candidates[i] = t.candidates[last]
	t.candidates[i].candIdx = i
	t.candidates[last] = nil
	t.candidates = t.candidates[:last]
	p.candIdx = -1
	if t.hand > last {
		t.hand = 0
	}
}

// --- acquire/release bookkeeping ---

// tierAcquire records a page entering the live set resident, registers it
// as an eviction candidate when it is a standard PageSize page, and
// returns it pre-pinned so it cannot be evicted before the allocating
// manager has initialized it. No-op when untiered.
func (rt *Runtime) tierAcquire(p *page) {
	t := rt.tier
	if t == nil {
		return
	}
	p.pinned.Add(1)
	p.accessed.Store(true)
	t.gResident.Add(1)
	if len(p.bytes()) == PageSize {
		t.mu.Lock()
		t.addCandidateLocked(p)
		t.mu.Unlock()
	}
}

// unpinAcquire drops the pin tierAcquire installed. Managers call it when
// the page stops being an allocation target (immediately for dedicated and
// oversize pages, on replacement or release for bump pages).
func (rt *Runtime) unpinAcquire(p *page) {
	if rt.tier == nil || p == nil {
		return
	}
	p.pinned.Add(-1)
}

// tierRelease records a page leaving the live set: a resident page is
// deregistered from the candidate list; a spilled page has its disk slot
// freed without ever being read back — the whole point of iteration-end
// bulk release. Returns with the page resident-state fields cleared.
// No-op when untiered.
func (rt *Runtime) tierRelease(p *page) {
	t := rt.tier
	if t == nil {
		return
	}
	p.tierMu.Lock()
	defer p.tierMu.Unlock()
	if p.spilled {
		t.mu.Lock()
		t.freeSlots = append(t.freeSlots, p.slot)
		t.mu.Unlock()
		p.spilled = false
		p.slot = -1
		t.gDisk.Add(-1)
		return
	}
	t.gResident.Add(-1)
	t.mu.Lock()
	t.removeCandidateLocked(p)
	t.mu.Unlock()
}

// --- eviction ---

// maybeEvict spills cold pages down to the low watermark when the
// resident count crosses the high watermark. Callers hold no page tierMu,
// not rt.mu and no record bytes; pk parks them for the spill.
// maybeEvict is split from evictIfOver so the untiered fast path inlines
// into the allocators; the tiered path can afford the extra call.
func (rt *Runtime) maybeEvict(pk Parker) {
	if rt.tier != nil {
		rt.evictIfOver(pk, nil)
	}
}

func (rt *Runtime) evictIfOver(pk Parker, keep *page) {
	t := rt.tier
	if t.gResident.Load() > int64(t.cfg.HighWater) {
		rt.spill(pk, int64(t.cfg.LowWater), keep)
	}
}

// spill evicts down to target resident pages, sparing keep, while every
// other mutator is parked: through pk's StopTheWorld, or inline when pk is
// nil (a store one thread uses).
func (rt *Runtime) spill(pk Parker, target int64, keep *page) {
	if pk == nil {
		rt.evictTo(target, keep)
		return
	}
	pk.StopTheWorld(func() { rt.evictTo(target, keep) })
}

// evictTo spills candidates other than keep until at most target pages are
// resident or nothing evictable remains (everything pinned or spill
// failing). The count is read again here, inside the stopped world: another
// thread's spill may have drained the store while this one waited for it.
func (rt *Runtime) evictTo(target int64, keep *page) {
	t := rt.tier
	if target < 0 {
		target = 0
	}
	for t.gResident.Load() > target {
		p := t.selectVictim(keep)
		if p == nil {
			return
		}
		err := rt.spillLocked(p)
		p.tierMu.Unlock()
		if err != nil {
			return // best effort: the page stays resident
		}
	}
}

// selectVictim runs the second-chance clock sweep and returns an unpinned
// resident candidate other than keep with its tierMu held, or nil when a
// full sweep finds nothing evictable. The world is stopped, so no thread
// holds a candidate's bytes; tierMu still orders the spill against an
// iteration-end release, which the TryLock skips and the released check
// catches once it has begun.
func (t *tier) selectVictim(keep *page) *page {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 2 * len(t.candidates); i > 0; i-- {
		if len(t.candidates) == 0 {
			return nil
		}
		if t.hand >= len(t.candidates) {
			t.hand = 0
		}
		p := t.candidates[t.hand]
		t.hand++
		if p == keep || p.pinned.Load() > 0 {
			continue
		}
		if p.accessed.Load() {
			p.accessed.Store(false) // second chance
			continue
		}
		if !p.tierMu.TryLock() {
			continue // busy; treat like pinned
		}
		if p.released.Load() {
			p.tierMu.Unlock()
			continue
		}
		return p
	}
	return nil
}

// spillLocked writes p's body to a disk slot and returns the body to the
// region source: the world is stopped, so no thread holds it. p.tierMu is
// held and p is a validated victim. On error the page stays resident —
// spill is best effort, the store degrades toward the quota/OME rungs
// instead.
func (rt *Runtime) spillLocked(p *page) error {
	t := rt.tier
	if rt.inj != nil && rt.inj.Fire(faults.TierSpill) {
		n := t.cFaultSpill.Load() + 1
		t.cFaultSpill.Inc()
		rt.obs.Emit(obs.EvFault, string(faults.TierSpill), n, 0, 0)
		return fmt.Errorf("offheap: tier spill: %w", faults.ErrInjected)
	}
	start := time.Now()
	t.mu.Lock()
	var slot int
	if n := len(t.freeSlots); n > 0 {
		slot = t.freeSlots[n-1]
		t.freeSlots = t.freeSlots[:n-1]
	} else {
		slot = t.nextSlot
		t.nextSlot++
	}
	_, err := t.file.WriteAt(p.bytes(), int64(slot)*PageSize)
	if err != nil {
		t.freeSlots = append(t.freeSlots, slot)
		t.mu.Unlock()
		return fmt.Errorf("offheap: tier spill: %w", err)
	}
	t.removeCandidateLocked(p)
	t.mu.Unlock()
	t.hSpillStall.Observe(time.Since(start).Nanoseconds())
	body := p.bytes()
	p.slot = slot
	p.spilled = true
	p.buf.Store(nil)
	rt.mem.Put(body)
	t.gResident.Add(-1)
	t.gDisk.Add(1)
	t.cSpilled.Inc()
	t.cSpillBytes.Add(PageSize)
	rt.addBytes(-PageSize) // bytesInUse counts DRAM only
	return nil
}

// promoteLocked reads p's body back from its disk slot into a region, which
// the read overwrites whole, and publishes it. p.tierMu is held and
// p.spilled is true. A failed read (injected TierLoad or real I/O error)
// returns the region, leaves the page spilled and returns an error wrapping
// ErrPageExhausted so the caller's error rides the OOM degradation rails.
func (rt *Runtime) promoteLocked(p *page) error {
	t := rt.tier
	if rt.inj != nil && rt.inj.Fire(faults.TierLoad) {
		n := t.cFaultLoad.Load() + 1
		t.cFaultLoad.Inc()
		rt.obs.Emit(obs.EvFault, string(faults.TierLoad), n, 0, 0)
		return fmt.Errorf("%w (injected tier load fault)", ErrPageExhausted)
	}
	buf := rt.mem.Get(PageSize)
	start := time.Now()
	t.mu.Lock()
	if _, err := t.file.ReadAt(buf, int64(p.slot)*PageSize); err != nil {
		t.mu.Unlock()
		rt.mem.Put(buf)
		return fmt.Errorf("%w (tier load: %v)", ErrPageExhausted, err)
	}
	t.freeSlots = append(t.freeSlots, p.slot)
	t.addCandidateLocked(p)
	t.mu.Unlock()
	t.hPromoteStall.Observe(time.Since(start).Nanoseconds())
	p.slot = -1
	p.spilled = false
	p.accessed.Store(true)
	p.buf.Store(&buf) // the whole body, read in full, becomes visible at once
	t.gDisk.Add(-1)
	t.gResident.Add(1)
	t.cPromoted.Inc()
	t.cPromoteBytes.Add(PageSize)
	rt.addBytes(PageSize)
	return nil
}

// --- page faults ---

// errReleasedPage is an access through a reference whose page was released
// while spilled; the iteration discipline of §3.7 rules it out.
var errReleasedPage = errors.New("offheap: record access on a released page")

// promote brings ref's page back into DRAM if it is spilled and returns
// it. A thread that lost the race to another promoter finds the body
// already published.
func (rt *Runtime) promote(ref PageRef) (*page, error) {
	idx, _ := splitRef(ref)
	p := (*rt.table.Load())[idx]
	p.tierMu.Lock()
	defer p.tierMu.Unlock()
	if p.buf.Load() != nil {
		return p, nil
	}
	if !p.spilled {
		return nil, errReleasedPage
	}
	return p, rt.promoteLocked(p)
}

// Fault is the slow path of record access, for a reference Bytes resolved
// to nil: it promotes the page and, if that left the store over its high
// watermark, spills down to the low one with the world stopped (pk parks
// the caller; nil spills inline), sparing the page just promoted. The
// caller holds no record bytes and resolves ref again afterwards; should
// another thread's spill have taken the page meanwhile, it faults again. A
// failed read returns an error wrapping ErrPageExhausted.
func (rt *Runtime) Fault(ref PageRef, pk Parker) error {
	p, err := rt.promote(ref)
	if err != nil {
		return err
	}
	rt.evictIfOver(pk, p)
	return nil
}
