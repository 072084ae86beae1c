package offheap

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// newTieredRuntime builds a store with a disk tier in a test temp dir.
// The dir is checked empty at test end: a tier must clean up its spill
// file on Reset.
func newTieredRuntime(t *testing.T, high, low int) (*Runtime, string) {
	t.Helper()
	dir := t.TempDir()
	rt := NewRuntime(nil)
	if err := rt.EnableTiering(TierConfig{Dir: dir, HighWater: high, LowWater: low}); err != nil {
		t.Fatal(err)
	}
	return rt, dir
}

// checkTierAccounting asserts the core tier invariant: every live page is
// either resident or on disk, never both, never neither.
func checkTierAccounting(t *testing.T, rt *Runtime) {
	t.Helper()
	s := rt.Stats()
	if s.PagesResident+s.PagesDisk != s.PagesLive {
		t.Fatalf("resident(%d) + disk(%d) != live(%d)", s.PagesResident, s.PagesDisk, s.PagesLive)
	}
	if s.PagesResident < 0 || s.PagesDisk < 0 {
		t.Fatalf("negative tier gauge: resident=%d disk=%d", s.PagesResident, s.PagesDisk)
	}
}

// dedicated allocates a record big enough to get a PageSize page to
// itself — the ideal eviction candidate (unpinned as soon as the alloc
// returns).
func dedicated(t *testing.T, m *PageManager, typeID uint16) PageRef {
	t.Helper()
	return mustRecord(t, m, typeID, 20000)
}

// portableLeg runs f as the "portable" subtest. The name is what the
// pread/pwrite leg was called while an mmap backend existed beside it; it
// stays so these tests keep their IDs.
func portableLeg(t *testing.T, f func(t *testing.T)) {
	t.Run("portable", f)
}

func TestTierSpillPromoteRoundtrip(t *testing.T) {
	portableLeg(t, func(t *testing.T) {
		rt, _ := newTieredRuntime(t, 4, 2)
		s := newScope(rt, 0)
		defer s.Close()
		const n = 12
		refs := make([]PageRef, n)
		for i := range refs {
			refs[i] = dedicated(t, s.Current(), uint16(i+1))
			put(rt, refs[i], 0, int64(i)*1_000_003)
			put(rt, refs[i], 8, float64(i)+0.5)
			checkTierAccounting(t, rt)
		}
		st := rt.Stats()
		if st.PagesSpilled == 0 {
			t.Fatal("watermark pressure produced no spills")
		}
		if st.PagesResident > 4 {
			t.Fatalf("resident %d above high watermark after allocation", st.PagesResident)
		}
		// Reading every record promotes the spilled ones back; the data
		// must be bit-identical to what was written.
		for i, ref := range refs {
			if got := get[int64](rt, ref, 0); got != int64(i)*1_000_003 {
				t.Fatalf("record %d long = %d after spill/promote", i, got)
			}
			if got := get[float64](rt, ref, 8); got != float64(i)+0.5 {
				t.Fatalf("record %d double = %v after spill/promote", i, got)
			}
			checkTierAccounting(t, rt)
		}
		if rt.Stats().PagesPromoted == 0 {
			t.Fatal("reads of spilled pages did not promote")
		}
	})
}

func TestTierNoDoubleSpillOrPromote(t *testing.T) {
	rt, _ := newTieredRuntime(t, 3, 1)
	s := newScope(rt, 0)
	defer s.Close()
	refs := make([]PageRef, 10)
	for i := range refs {
		refs[i] = dedicated(t, s.Current(), 1)
	}
	// Re-touch in rounds: each touch promotes at most once, each eviction
	// spills at most once, and while no page has been released every
	// spill is either still on disk or was promoted back — never both.
	for round := 0; round < 3; round++ {
		for i, ref := range refs {
			put(rt, ref, 0, int32(round*100+i))
		}
	}
	st := rt.Stats()
	if st.PagesSpilled-st.PagesPromoted != st.PagesDisk {
		t.Fatalf("spilled(%d) - promoted(%d) != disk(%d): double spill or double promote",
			st.PagesSpilled, st.PagesPromoted, st.PagesDisk)
	}
	for i, ref := range refs {
		if got := get[int32](rt, ref, 0); got != int32(200+i) {
			t.Fatalf("record %d = %d after churn", i, got)
		}
	}
	checkTierAccounting(t, rt)
}

func TestTierBumpPageNeverEvicted(t *testing.T) {
	rt, _ := newTieredRuntime(t, 2, 1)
	s := newScope(rt, 0)
	defer s.Close()
	// A small record opens a class-0 bump page; the manager holds its
	// acquire pin while it is the allocation target, so the eviction
	// pressure from the dedicated pages must never select it.
	ref := mustRecord(t, s.Current(), 1, 32)
	put(rt, ref, 0, int32(7))
	idx, _ := splitRef(ref)
	bump := (*rt.table.Load())[idx]
	for i := 0; i < 10; i++ {
		dedicated(t, s.Current(), 2)
		bump.tierMu.Lock()
		spilled := bump.spilled
		bump.tierMu.Unlock()
		if spilled {
			t.Fatalf("evictor spilled the manager's bump page on round %d", i)
		}
		// Bump allocation into the page must keep working under pressure.
		r2 := mustRecord(t, s.Current(), 1, 32)
		put(rt, r2, 0, int32(i))
		if get[int32](rt, r2, 0) != int32(i) {
			t.Fatal("bump allocation corrupted under eviction pressure")
		}
	}
	if get[int32](rt, ref, 0) != 7 {
		t.Fatal("bump page content lost")
	}
}

func TestTierIterationReleaseSkipsReadback(t *testing.T) {
	portableLeg(t, func(t *testing.T) {
		rt, _ := newTieredRuntime(t, 2, 1)
		s := newScope(rt, 0)
		defer s.Close()
		s.IterationStart()
		for i := 0; i < 8; i++ {
			dedicated(t, s.Current(), 1)
		}
		before := rt.Stats()
		if before.PagesDisk == 0 {
			t.Fatal("setup: nothing spilled")
		}
		s.IterationEnd()
		after := rt.Stats()
		if after.PagesPromoted != before.PagesPromoted {
			t.Fatalf("iteration release read %d spilled page(s) back from disk",
				after.PagesPromoted-before.PagesPromoted)
		}
		if after.PagesDisk != 0 || after.PagesLive != 0 {
			t.Fatalf("release left disk=%d live=%d", after.PagesDisk, after.PagesLive)
		}
	})
}

func TestTierQuotaSpillsBeforeFailing(t *testing.T) {
	rt, _ := newTieredRuntime(t, 1000, 999)
	rt.SetPageQuota(3) // caps DRAM-resident pages when tiered
	s := newScope(rt, 0)
	defer s.Close()
	refs := make([]PageRef, 10)
	for i := range refs {
		// Untiered, the 4th acquire would fail with ErrPageQuota; with a
		// tier the store spills first — the new first rung of the ladder.
		refs[i] = dedicated(t, s.Current(), 1)
		put(rt, refs[i], 0, int64(i))
	}
	st := rt.Stats()
	if st.PagesResident > 3 {
		t.Fatalf("quota let %d pages stay resident", st.PagesResident)
	}
	if st.PagesSpilled == 0 {
		t.Fatal("quota pressure did not spill")
	}
	for i, ref := range refs {
		if got := get[int64](rt, ref, 0); got != int64(i) {
			t.Fatalf("record %d = %d under quota spill", i, got)
		}
	}
	checkTierAccounting(t, rt)
}

// TestTierLoadFaultSurfacesAsPageExhausted fails the first promotion read
// and requires both slow paths of a record resolution, Fault and Resident,
// to return it as an error wrapping ErrPageExhausted, with the page left on
// disk.
func TestTierLoadFaultSurfacesAsPageExhausted(t *testing.T) {
	for _, c := range []struct {
		name    string
		resolve func(rt *Runtime, ref PageRef) error
	}{
		{"Fault", func(rt *Runtime, ref PageRef) error { return rt.Fault(ref, nil) }},
		{"Resident", func(rt *Runtime, ref PageRef) error { _, err := rt.Resident(ref); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt, _ := newTieredRuntime(t, 2, 1)
			rt.SetFaultInjector(faults.New(&faults.Config{Seed: 5, TierLoadAt: 1}))
			s := newScope(rt, 0)
			defer s.Close()
			refs := make([]PageRef, 6)
			var spilled PageRef
			for i := range refs {
				refs[i] = dedicated(t, s.Current(), 1)
				put(rt, refs[i], 0, int64(i))
			}
			for _, ref := range refs {
				if rt.Bytes(ref) == nil {
					spilled = ref
					break
				}
			}
			if spilled == 0 {
				t.Fatal("setup: no page was spilled")
			}
			if err := c.resolve(rt, spilled); !errors.Is(err, ErrPageExhausted) {
				t.Fatalf("%s under an injected TierLoad = %v, want an error wrapping ErrPageExhausted", c.name, err)
			}
			if rt.Bytes(spilled) != nil {
				t.Fatal("a failed promotion published the page")
			}
			// The schedule is one-shot: a retry of the same reads succeeds
			// with the original values — the degradation ladder's replay
			// contract.
			for i, ref := range refs {
				if got := get[int64](rt, ref, 0); got != int64(i) {
					t.Fatalf("record %d = %d on retry after injected load fault", i, got)
				}
			}
			checkTierAccounting(t, rt)
		})
	}
}

func TestTierSpillFaultIsBestEffort(t *testing.T) {
	rt, _ := newTieredRuntime(t, 2, 1)
	rt.SetFaultInjector(faults.New(&faults.Config{Seed: 5, TierSpillAt: 1}))
	s := newScope(rt, 0)
	defer s.Close()
	refs := make([]PageRef, 8)
	for i := range refs {
		refs[i] = dedicated(t, s.Current(), 1) // first eviction attempt fails silently
		put(rt, refs[i], 0, int64(i))
	}
	for i, ref := range refs {
		if got := get[int64](rt, ref, 0); got != int64(i) {
			t.Fatalf("record %d = %d after injected spill fault", i, got)
		}
	}
	if rt.Stats().PagesSpilled == 0 {
		t.Fatal("one-shot spill fault permanently disabled eviction")
	}
	checkTierAccounting(t, rt)
}

func TestTierResetTearsDownSpillFile(t *testing.T) {
	portableLeg(t, func(t *testing.T) {
		rt, dir := newTieredRuntime(t, 2, 1)
		s := newScope(rt, 0)
		for i := 0; i < 6; i++ {
			dedicated(t, s.Current(), 1)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Fatalf("expected one spill file during the run, found %d entries", len(ents))
		}
		s.Close()
		if err := rt.Reset(nil, nil); err != nil {
			t.Fatal(err)
		}
		if rt.Tiered() {
			t.Fatal("Reset left the tier attached")
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("Reset leaked %d spill file(s): %v", len(ents), ents)
		}
		st := rt.Stats()
		if st.PagesSpilled != 0 || st.PagesResident != 0 || st.PagesDisk != 0 {
			t.Fatalf("Reset left tier counters: %+v", st)
		}
	})
}

func TestEnableTieringValidation(t *testing.T) {
	rt := NewRuntime(nil)
	if err := rt.EnableTiering(TierConfig{Dir: t.TempDir(), HighWater: 0, LowWater: 0}); err == nil {
		t.Fatal("zero high watermark accepted")
	}
	// A low watermark outside 1..high selects the default, half of high.
	for _, c := range []struct{ high, low, want int }{{2, 5, 1}, {64, 0, 32}, {1, 0, 1}, {8, 8, 8}} {
		d := NewRuntime(nil)
		if err := d.EnableTiering(TierConfig{Dir: t.TempDir(), HighWater: c.high, LowWater: c.low}); err != nil {
			t.Fatal(err)
		}
		if got := d.tier.cfg.LowWater; got != c.want {
			t.Fatalf("watermark %d/%d: evicts down to %d, want %d", c.high, c.low, got, c.want)
		}
		if err := d.Reset(nil, nil); err != nil { // removes the spill file
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := rt.EnableTiering(TierConfig{Dir: dir, HighWater: 4, LowWater: 2}); err != nil {
		t.Fatal(err)
	}
	if err := rt.EnableTiering(TierConfig{Dir: dir, HighWater: 4, LowWater: 2}); err == nil {
		t.Fatal("double enable accepted")
	}
}

// TestRecordAccessTieredMatchesUntiered runs one script of writes and
// reads over every slot kind (byte, int, long, double, reference), in
// scalar and array records, against an untiered store and against a tiered
// one that spills every page it can before each read. Values must agree,
// through both slow paths of the one resolution (Resident, which promotes
// a spilled page on the spot, and Fault while Bytes returns nil), and no
// operation may leave a pin behind.
func TestRecordAccessTieredMatchesUntiered(t *testing.T) {
	type store struct {
		rt   *Runtime
		s    *IterScope
		recs []PageRef
		arrs []PageRef
	}
	const n = 8
	build := func(rt *Runtime) *store {
		st := &store{rt: rt, s: newScope(rt, 0)}
		for i := 0; i < n; i++ {
			// Big enough for a page each, so the tiered store keeps spilling.
			st.recs = append(st.recs, mustRecord(t, st.s.Current(), uint16(i+1), 20000))
			arr, err := st.s.Current().AllocArray(nil, 3, 8, 2500)
			if err != nil {
				t.Fatal(err)
			}
			st.arrs = append(st.arrs, arr)
		}
		return st
	}
	tieredRT, _ := newTieredRuntime(t, 3, 1)
	plain, tiered := build(NewRuntime(nil)), build(tieredRT)
	defer plain.s.Close()
	defer tiered.s.Close()

	// balanced runs op on both stores and checks the tiered pin count.
	balanced := func(what string, op func(st *store)) {
		t.Helper()
		before := tieredRT.Pins()
		op(tiered)
		if after := tieredRT.Pins(); after != before {
			t.Fatalf("%s: pins %d -> %d", what, before, after)
		}
		op(plain)
	}
	for i := 0; i < n; i++ {
		i := i
		balanced("writes", func(st *store) {
			rt, rec, arr := st.rt, st.recs[i], st.arrs[i]
			put(rt, rec, 0, int8(-i-1))
			put(rt, rec, 4, int32(-1000*i-7))
			put(rt, rec, 8, int64(i)<<40|5)
			put(rt, rec, 16, float64(i)+0.25)
			put(rt, rec, 24, arr)
			putU16(resident(rt, rec)[2:], uint16(i+1)) // the lock field
			put(rt, arr, 8*(i+1), int64(i)*77)
			put(rt, arr, 8*2400, int8(i))
			b := recordBody(resident(rt, arr))
			copy(b[8*2000:8*2001], b[8*(i+1):8*(i+2)])
		})
	}
	if tieredRT.Stats().PagesSpilled == 0 {
		t.Fatal("setup: the tiered store never spilled")
	}
	// bytesOf resolves the way the VM's record ops do.
	bytesOf := func(rt *Runtime, ref PageRef) []byte {
		for {
			if b := rt.Bytes(ref); b != nil {
				return b
			}
			if err := rt.Fault(ref, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < n; i++ {
		rec := func(st *store) PageRef { return st.recs[i] }
		arr := func(st *store) PageRef { return st.arrs[i] }
		reads := []func(st *store) int64{
			func(st *store) int64 { return int64(get[int8](st.rt, rec(st), 0)) },
			func(st *store) int64 { return int64(get[int32](st.rt, rec(st), 4)) },
			func(st *store) int64 { return get[int64](st.rt, rec(st), 8) },
			func(st *store) int64 { return int64(get[float64](st.rt, rec(st), 16) * 4) },
			func(st *store) int64 { return get[int64](st.rt, rec(st), 24) - int64(arr(st)) },
			func(st *store) int64 { return int64(getU16(resident(st.rt, rec(st))[2:])) },
			func(st *store) int64 { return int64(TypeWord(resident(st.rt, rec(st)))) },
			func(st *store) int64 { return int64(ArrayLength(resident(st.rt, arr(st)))) },
			func(st *store) int64 {
				idx, _ := ArrayType(TypeWord(resident(st.rt, arr(st))))
				return int64(idx)
			},
			func(st *store) int64 { return get[int64](st.rt, arr(st), 8*(i+1)) },
			func(st *store) int64 { return int64(get[int8](st.rt, arr(st), 8*2400)) },
			func(st *store) int64 { return get[int64](st.rt, arr(st), 8*2000) },
			// The same slots through one resolution and the header size
			// the operation implies, as the VM reads them.
			func(st *store) int64 { return int64(TypeWord(bytesOf(st.rt, rec(st)))) },
			func(st *store) int64 { return int64(getU64(bytesOf(st.rt, rec(st))[ScalarHeader+8:])) },
			func(st *store) int64 { return int64(ArrayLength(bytesOf(st.rt, arr(st)))) },
			func(st *store) int64 {
				return int64(getU64(bytesOf(st.rt, arr(st))[ArrayHeader+8*(i+1):]))
			},
		}
		for k, read := range reads {
			tieredRT.evictTo(0, nil)
			if tieredRT.Bytes(rec(tiered)) != nil || tieredRT.Bytes(arr(tiered)) != nil {
				t.Fatalf("record %d read %d: setup left the pages resident", i, k)
			}
			var got, want int64
			balanced(fmt.Sprintf("record %d read %d", i, k), func(st *store) {
				if st == tiered {
					got = read(st)
				} else {
					want = read(st)
				}
			})
			if got != want {
				t.Fatalf("record %d read %d: untiered %d, tiered %d", i, k, want, got)
			}
		}
	}
	checkTierAccounting(t, tieredRT)
}

// TestRecordCountExactAcrossManagers pins the allocator's accounting:
// records are counted per manager without shared writes, and Stats must
// still be exact while managers are live, after they release, and for
// managers in nested iterations.
func TestRecordCountExactAcrossManagers(t *testing.T) {
	rt := NewRuntime(nil)
	s := newScope(rt, 0)
	want := int64(0)
	alloc := func(k int) {
		for i := 0; i < k; i++ {
			mustRecord(t, s.Current(), 1, 16)
			want++
		}
		if got := rt.Stats().Records; got != want {
			t.Fatalf("records = %d, want %d (depth %d)", got, want, s.Depth())
		}
	}
	alloc(3)
	s.IterationStart()
	alloc(5)
	s.IterationStart()
	alloc(7)
	s.IterationEnd()
	alloc(2)
	s.IterationEnd()
	alloc(1)
	s.Close()
	if got := rt.Stats().Records; got != want {
		t.Fatalf("records after close = %d, want %d", got, want)
	}
	if len(rt.live) != 0 {
		t.Fatalf("%d manager(s) still registered after close", len(rt.live))
	}
	if rt.Pins() != 0 {
		t.Fatalf("untiered store reports %d pins", rt.Pins())
	}
}

// TestStatsReadTheInstruments pins the one-book rule: every Stats field
// that has an obs instrument reports that instrument's value — mid-run on a
// tiered store, after release, and after Reset rebinds the store to the next
// job's registry (whose page counters start at zero while the pool stays
// warm).
func TestStatsReadTheInstruments(t *testing.T) {
	check := func(when string, rt *Runtime) {
		t.Helper()
		st, snap := rt.Stats(), rt.Obs().Snapshot()
		for _, c := range []struct {
			field      string
			got, instr int64
		}{
			{"PagesLive", st.PagesLive, snap.Gauges[obs.GaugePagesLive]},
			{"PagesLiveHW", st.PagesLiveHW, snap.Gauges[obs.GaugePagesLive+".hw"]},
			{"PagesRecycled", st.PagesRecycled, snap.Counters[obs.CtrPageRecycles]},
			{"PagesSpilled", st.PagesSpilled, snap.Counters[obs.CtrPagesSpilled]},
			{"PagesPromoted", st.PagesPromoted, snap.Counters[obs.CtrPagesPromoted]},
			{"PagesResident", st.PagesResident, snap.Gauges[obs.GaugePagesResident]},
			{"PagesDisk", st.PagesDisk, snap.Gauges[obs.GaugePagesDisk]},
			{"SpillBytes", st.SpillBytes, snap.Counters[obs.CtrSpillBytes]},
			{"PromoteBytes", st.PromoteBytes, snap.Counters[obs.CtrPromoteBytes]},
			{"PagesCreated", st.PagesCreated, snap.Counters[obs.CtrPagesCreated]},
			{"Oversize", st.Oversize, snap.Counters[obs.CtrOversize]},
			{"Managers", st.Managers, snap.Counters[obs.CtrManagers]},
			{"BytesInUse", st.BytesInUse, snap.Gauges[obs.GaugeBytesInUse]},
			{"PeakBytes", st.PeakBytes, snap.Gauges[obs.GaugeBytesInUse+".hw"]},
		} {
			if c.got != c.instr {
				t.Errorf("%s: Stats.%s = %d, instrument = %d", when, c.field, c.got, c.instr)
			}
		}
		if acq, rel := snap.Counters[obs.CtrPageAcquires], snap.Counters[obs.CtrPageReleases]; acq-rel != st.PagesLive {
			t.Errorf("%s: acquires %d - releases %d != live %d", when, acq, rel, st.PagesLive)
		}
	}

	rt, _ := newTieredRuntime(t, 4, 2)
	s := newScope(rt, 0)
	for iter := 0; iter < 3; iter++ {
		s.IterationStart()
		refs := make([]PageRef, 10)
		for i := range refs {
			refs[i] = dedicated(t, s.Current(), 1)
			put(rt, refs[i], 0, int64(i))
		}
		for i, ref := range refs { // read back: the early ones promote
			if got := get[int64](rt, ref, 0); got != int64(i) {
				t.Fatalf("iteration %d record %d = %d", iter, i, got)
			}
		}
		check(fmt.Sprintf("iteration %d open", iter), rt)
		s.IterationEnd()
	}
	s.Close()
	st := rt.Stats()
	if st.PagesSpilled == 0 || st.PagesPromoted == 0 || st.PagesRecycled == 0 {
		t.Fatalf("run never spilled, promoted and recycled: %+v", st)
	}
	check("after close", rt)

	first := rt.Obs()
	if err := rt.Reset(obs.NewRegistry(), nil); err != nil {
		t.Fatal(err)
	}
	check("after reset", rt)
	if got := rt.Stats(); got != (Stats{}) {
		t.Fatalf("Reset kept the previous job's page counts: %+v", got)
	}
	s = newScope(rt, 0)
	dedicated(t, s.Current(), 1)
	check("second job", rt)
	if got := rt.Stats(); got.PagesCreated != 0 || got.PagesRecycled != 1 {
		t.Fatalf("second job did not draw from the warm pool: %+v", got)
	}
	s.Close()
	if got := first.Snapshot().Counters[obs.CtrPageRecycles]; got != st.PagesRecycled {
		t.Fatalf("second job moved the first job's registry: recycles %d, want %d", got, st.PagesRecycled)
	}
}
