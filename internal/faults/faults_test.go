package faults

import (
	"testing"
	"time"
)

func TestParseFullSpec(t *testing.T) {
	c, err := Parse("drop=0.05,dup=0.02,delay=5ms,reorder=0.01,crash=1,alloc=0.001,page=0.002,allocat=7,pageat=9,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if c.Drop != 0.05 || c.Dup != 0.02 || c.Reorder != 0.01 {
		t.Fatalf("net probs: %+v", c)
	}
	if c.DelayMax != 5*time.Millisecond || c.DelayProb != 1 {
		t.Fatalf("delay: %+v", c)
	}
	if c.Crashes != 1 || c.AllocProb != 0.001 || c.PageProb != 0.002 {
		t.Fatalf("crash/alloc/page: %+v", c)
	}
	if c.AllocAt != 7 || c.PageAt != 9 || c.Seed != 42 {
		t.Fatalf("schedules/seed: %+v", c)
	}
	if !c.Enabled() {
		t.Fatal("spec should enable injection")
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{"drop=2", "drop=x", "drop=NaN", "alloc=nan", "delay=fast", "crash=-1", "allocat=0", "bogus=1", "noequals"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

// FuzzParse holds Parse, the decoder of the -faults flag and of a daemon
// job's faults field, to its contract on any input: it never panics, and
// every probability of a spec it accepts lies in [0,1].
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"drop=NaN",
		"drop=0.05,dup=0.02,delay=5ms,reorder=0.01,crash=1,alloc=0.001,page=0.002,allocat=7,pageat=9,seed=42",
		"tierspill=1,tierload=0,tierspillat=3,killat=2,delayp=0.5",
		"alloc=1e-400,page=-0,drop=+Inf",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := Parse(spec)
		if err != nil {
			return
		}
		for name, p := range map[string]float64{
			"drop": c.Drop, "dup": c.Dup, "reorder": c.Reorder, "delayp": c.DelayProb,
			"alloc": c.AllocProb, "page": c.PageProb, "tierspill": c.TierSpillProb, "tierload": c.TierLoadProb,
		} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("Parse(%q) accepted %s=%v", spec, name, p)
			}
		}
	})
}

func TestParseEmptyDisabled(t *testing.T) {
	c, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if c.Enabled() {
		t.Fatal("empty spec should not enable injection")
	}
	if New(&c) != nil {
		t.Fatal("disabled config should build a nil injector")
	}
}

func TestNilInjectorIsSafe(t *testing.T) {
	var i *Injector
	if i.Fire(HeapAlloc) || i.FireKeyed(NetDrop, 9) || i.DelayKeyed(1) != 0 {
		t.Fatal("nil injector fired")
	}
	if i.CrashPlan(10, 4) != nil || i.Fires() != nil {
		t.Fatal("nil injector planned/counted")
	}
}

func TestCounterStreamDeterministic(t *testing.T) {
	run := func() []bool {
		inj := New(&Config{Seed: 7, AllocProb: 0.3})
		out := make([]bool, 200)
		for k := range out {
			out[k] = inj.Fire(HeapAlloc)
		}
		return out
	}
	a, b := run(), run()
	fires := 0
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("divergence at %d", k)
		}
		if a[k] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("implausible fire count %d/200 at p=0.3", fires)
	}
}

func TestScheduledFire(t *testing.T) {
	inj := New(&Config{Seed: 1, AllocAt: 5})
	for k := 1; k <= 10; k++ {
		got := inj.Fire(HeapAlloc)
		if got != (k == 5) {
			t.Fatalf("eval %d: fired=%v", k, got)
		}
	}
	if inj.Fires()[string(HeapAlloc)] != 1 {
		t.Fatalf("fires: %v", inj.Fires())
	}
}

func TestKeyedIndependentOfOrder(t *testing.T) {
	inj := New(&Config{Seed: 99, Drop: 0.4})
	// Same keys in different orders give the same per-key answers.
	keys := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
	first := make(map[uint64]bool)
	for _, k := range keys {
		first[k] = inj.FireKeyed(NetDrop, k)
	}
	for j := len(keys) - 1; j >= 0; j-- {
		k := keys[j]
		if inj.FireKeyed(NetDrop, k) != first[k] {
			t.Fatalf("key %d changed answer", k)
		}
	}
}

func TestDelayKeyedWithinBound(t *testing.T) {
	inj := New(&Config{Seed: 3, DelayProb: 1, DelayMax: 5 * time.Millisecond})
	for k := uint64(0); k < 100; k++ {
		d := inj.DelayKeyed(k)
		if d <= 0 || d > 5*time.Millisecond {
			t.Fatalf("delay %v out of (0, 5ms]", d)
		}
	}
}

func TestCrashPlanMidRunAndDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, Crashes: 2}
	p1 := New(&cfg).CrashPlan(8, 4)
	p2 := New(&cfg).CrashPlan(8, 4)
	if len(p1) != 2 {
		t.Fatalf("plan: %+v", p1)
	}
	for j, c := range p1 {
		if c != p2[j] {
			t.Fatalf("plans diverge: %+v vs %+v", p1, p2)
		}
		if c.Occasion < 1 || c.Occasion >= 8 {
			t.Fatalf("crash not mid-run: %+v", c)
		}
		if c.Node < 0 || c.Node >= 4 {
			t.Fatalf("bad node: %+v", c)
		}
	}
	if p1[0].Occasion == p1[1].Occasion {
		t.Fatalf("occasions should be distinct: %+v", p1)
	}
	if New(&Config{Seed: 11, Crashes: 1}).CrashPlan(1, 4) != nil {
		t.Fatal("single-occasion engine cannot host a mid-run crash")
	}
}

// TestPlanTakeConsumesOnce: an engine that replays an occasion asks the
// plan again and must get nothing — the crash fired the first time.
func TestPlanTakeConsumesOnce(t *testing.T) {
	plan := New(&Config{Seed: 11, Crashes: 2}).CrashPlan(8, 4)
	want := append(Plan(nil), plan...)
	for occ := 0; occ < 8; occ++ {
		node, ok := plan.Take(occ)
		planned := len(want) > 0 && want[0].Occasion == occ
		if ok != planned || planned && node != want[0].Node {
			t.Fatalf("occasion %d: Take = (%d, %v), plan %+v", occ, node, ok, want)
		}
		if planned {
			want = want[1:]
		}
		if _, again := plan.Take(occ); again {
			t.Fatalf("occasion %d re-fired on replay", occ)
		}
	}
	if len(want) != 0 {
		t.Fatalf("crashes never handed out: %+v", want)
	}
	if _, ok := Plan(nil).Take(1); ok {
		t.Fatal("empty plan handed out a crash")
	}
}

func TestForNodeDistinctStreams(t *testing.T) {
	base := Config{Seed: 5, AllocProb: 0.5}
	a := New(&Config{Seed: base.ForNode(0).Seed, AllocProb: 0.5})
	b := New(&Config{Seed: base.ForNode(1).Seed, AllocProb: 0.5})
	same := true
	for k := 0; k < 64; k++ {
		if a.Fire(HeapAlloc) != b.Fire(HeapAlloc) {
			same = false
		}
	}
	if same {
		t.Fatal("per-node streams identical")
	}
}

// TestKillAtSchedule pins the daemon-level crash point: killat=N fires
// server.crash on exactly the N-th evaluation — the deterministic SIGKILL
// stand-in the daemon's crash-recovery tests schedule.
func TestKillAtSchedule(t *testing.T) {
	c, err := Parse("killat=3")
	if err != nil {
		t.Fatal(err)
	}
	if c.KillAt != 3 {
		t.Fatalf("KillAt = %d, want 3", c.KillAt)
	}
	if !c.Enabled() {
		t.Fatal("killat spec should enable injection")
	}
	i := New(&c)
	if i == nil {
		t.Fatal("killat spec built a nil injector")
	}
	for n := 1; n <= 6; n++ {
		fired := i.Fire(ServerCrash)
		if fired != (n == 3) {
			t.Fatalf("evaluation %d: fired=%v", n, fired)
		}
	}
	if _, err := Parse("killat=0"); err == nil {
		t.Fatal("killat=0 accepted")
	}
}
