// Package faults is the deterministic, seed-driven fault-injection layer
// of the runtime. Every place a real deployment can fail — a managed-heap
// allocation, an off-heap page acquire, a network frame in flight, a whole
// cluster node — is a named fault point that consults an Injector before
// doing its work. With no injector configured every check is a single nil
// test, so compiled-in injection costs nothing on the happy path.
//
// Determinism is the design center: a fixed Config.Seed must reproduce the
// exact same fault sequence run after run, or the fault-matrix tests (and
// any bug they catch) would not replay. Two firing modes provide this
// under concurrency:
//
//   - Counter-based points (Fire) draw from a per-point splitmix64 stream
//     advanced under a lock. They are deterministic when the point is
//     evaluated from a single goroutine — which holds for the per-node
//     heap and page-store injectors, since every cluster node gets its own
//     Injector derived with Config.ForNode.
//   - Keyed points (FireKeyed) hash the seed with a caller-supplied key
//     (for the network: from, to, sequence number, attempt) and are
//     deterministic regardless of goroutine interleaving, because the
//     decision depends only on the frame's identity, never on global
//     order.
//
// Whole-node crashes are planned, not sampled: CrashPlan maps the
// configured crash count onto concrete (occasion, node) pairs — a
// superstep for GPS, a phase for Hyracks — so "one mid-run crash" is
// guaranteed to land mid-run.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The two failure classes the daemon's retry taxonomy treats as transient
// (docs/ROBUSTNESS.md). Producers wrap them with %w in place of the same
// words in their messages; consumers classify with errors.Is.
var (
	// ErrInjected marks a failure manufactured by an Injector.
	ErrInjected = errors.New("injected fault")
	// ErrNotReusable marks a failed warm-VM reset (leaked threads or pages,
	// a spill file that would not close): the VM is poisoned, the job is not.
	ErrNotReusable = errors.New("reset")
)

// Point names one fault-injection site.
type Point string

// The runtime's fault points.
const (
	// HeapAlloc fails a managed-heap allocation with OutOfMemoryError
	// ahead of true exhaustion (counter-based, per-node injector).
	HeapAlloc Point = "heap.alloc"
	// PageAcquire fails an off-heap page acquire with ErrPageExhausted
	// (counter-based, per-node injector).
	PageAcquire Point = "offheap.page"
	// NetDrop loses a frame delivery attempt (keyed by frame identity and
	// attempt; the sender retries with backoff).
	NetDrop Point = "net.drop"
	// NetDup delivers a frame twice (keyed; the receiver dedups).
	NetDup Point = "net.dup"
	// NetDelay sleeps a frame for a keyed-uniform duration in
	// (0, Config.DelayMax].
	NetDelay Point = "net.delay"
	// NetReorder delivers a frame ahead of frames already queued.
	NetReorder Point = "net.reorder"
	// TierSpill fails a page spill to the disk tier (counter-based).
	// A failed spill is best-effort — the page stays resident and the
	// store degrades toward the quota/OME rungs of the ladder — so the
	// point models a full disk or a transient write error without ever
	// corrupting data.
	TierSpill Point = "offheap.tier_spill"
	// TierLoad fails a promotion read from the disk tier (counter-based).
	// Loads are not optional: the failure surfaces through the VM as a
	// typed error wrapping ErrPageExhausted, so engines walk the same
	// degradation ladder they use for memory exhaustion.
	TierLoad Point = "offheap.tier_load"
	// NodeCrash kills a whole node (planned via CrashPlan, not sampled).
	NodeCrash Point = "node.crash"
	// ServerCrash kills the whole daemon process at a scheduled journal
	// append (the daemon's crash-recovery tests use it to die mid-batch
	// deterministically, standing in for kill -9).
	ServerCrash Point = "server.crash"
)

// Config declares which faults to inject. The zero value injects nothing.
type Config struct {
	// Seed drives every pseudo-random decision. Two runs with the same
	// Config produce the same fault sequence.
	Seed int64

	// Drop, Dup, Reorder are per-delivery-attempt probabilities for the
	// corresponding network points.
	Drop    float64
	Dup     float64
	Reorder float64

	// DelayProb is the per-frame probability of an injected delay of
	// keyed-uniform length in (0, DelayMax]. Parse sets DelayProb to 1
	// when a "delay=<dur>" bound is given without an explicit "delayp=".
	DelayProb float64
	DelayMax  time.Duration

	// Crashes is the number of whole-node crashes to plan (see CrashPlan).
	Crashes int

	// AllocProb fails managed-heap allocations with that probability;
	// AllocAt fails exactly the AllocAt-th evaluation (1-based).
	AllocProb float64
	AllocAt   int64

	// PageProb / PageAt are the analogous controls for off-heap page
	// acquires.
	PageProb float64
	PageAt   int64

	// TierSpillProb / TierSpillAt fail disk-tier spill writes;
	// TierLoadProb / TierLoadAt fail disk-tier promotion reads.
	TierSpillProb float64
	TierSpillAt   int64
	TierLoadProb  float64
	TierLoadAt    int64

	// KillAt crashes the daemon process at exactly the KillAt-th journal
	// append (1-based) — the deterministic stand-in for SIGKILL that the
	// daemon's crash-recovery tests schedule via "killat=N".
	KillAt int64
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.Drop > 0 || c.Dup > 0 || c.Reorder > 0 ||
		(c.DelayProb > 0 && c.DelayMax > 0) || c.Crashes > 0 ||
		c.AllocProb > 0 || c.AllocAt > 0 || c.PageProb > 0 || c.PageAt > 0 ||
		c.TierSpillProb > 0 || c.TierSpillAt > 0 ||
		c.TierLoadProb > 0 || c.TierLoadAt > 0 ||
		c.KillAt > 0
}

// ForNode derives the per-node variant of the config: same fault rates,
// node-unique seed, so each node's counter-based streams are independent
// but reproducible.
func (c Config) ForNode(node int) Config {
	d := c
	d.Seed = int64(uint64(c.Seed) ^ (uint64(node+1) * 0x9E3779B97F4A7C15))
	return d
}

// Parse reads a comma-separated fault spec, e.g.
//
//	drop=0.05,dup=0.02,delay=5ms,crash=1,seed=42
//
// Keys: drop, dup, reorder, delayp (probabilities in [0,1]); delay (max
// injected delay, a Go duration); crash (node crashes to plan); alloc /
// page (probabilities); allocat / pageat (1-based scheduled evaluation);
// seed (int). Unknown keys are errors so typos fail loudly.
func Parse(spec string) (Config, error) {
	var c Config
	c.Seed = 1
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return c, nil
	}
	delayProbSet := false
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return c, fmt.Errorf("faults: %q is not key=value", tok)
		}
		switch k {
		case "drop", "dup", "reorder", "delayp", "alloc", "page", "tierspill", "tierload":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || !(p >= 0 && p <= 1) { // NaN is in no interval
				return c, fmt.Errorf("faults: %s wants a probability in [0,1], got %q", k, v)
			}
			switch k {
			case "drop":
				c.Drop = p
			case "dup":
				c.Dup = p
			case "reorder":
				c.Reorder = p
			case "delayp":
				c.DelayProb = p
				delayProbSet = true
			case "alloc":
				c.AllocProb = p
			case "page":
				c.PageProb = p
			case "tierspill":
				c.TierSpillProb = p
			case "tierload":
				c.TierLoadProb = p
			}
		case "delay":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return c, fmt.Errorf("faults: delay wants a duration, got %q", v)
			}
			c.DelayMax = d
		case "crash":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return c, fmt.Errorf("faults: crash wants a count, got %q", v)
			}
			c.Crashes = n
		case "allocat", "pageat", "killat", "tierspillat", "tierloadat":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 1 {
				return c, fmt.Errorf("faults: %s wants a positive index, got %q", k, v)
			}
			switch k {
			case "allocat":
				c.AllocAt = n
			case "pageat":
				c.PageAt = n
			case "killat":
				c.KillAt = n
			case "tierspillat":
				c.TierSpillAt = n
			case "tierloadat":
				c.TierLoadAt = n
			}
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return c, fmt.Errorf("faults: seed wants an integer, got %q", v)
			}
			c.Seed = n
		default:
			return c, fmt.Errorf("faults: unknown key %q", k)
		}
	}
	if c.DelayMax > 0 && !delayProbSet {
		c.DelayProb = 1
	}
	return c, nil
}

// Crash is one planned whole-node crash: the node dies at the start of
// the given occasion (a GPS superstep, a Hyracks phase, ...).
type Crash struct {
	Occasion int
	Node     int
	taken    bool // handed out by Plan.Take
}

// Plan is the crash schedule CrashPlan returns, sorted by occasion.
type Plan []Crash

// Take hands out the node planned to crash at occasion, once: an engine
// that replays an occasion (an interval retry, a multi-step rewind) asks
// again and must not re-fire the crash.
func (p Plan) Take(occasion int) (node int, ok bool) {
	for i := range p {
		if c := &p[i]; c.Occasion == occasion && !c.taken {
			c.taken = true
			return c.Node, true
		}
	}
	return 0, false
}

// Injector evaluates fault points against a Config. All methods are safe
// on a nil receiver (and report "no fault"), so layers hold a possibly-nil
// *Injector and pay one nil check when injection is off.
type Injector struct {
	cfg Config

	mu     sync.Mutex
	states map[Point]*pointState
}

type pointState struct {
	rng   uint64 // splitmix64 state, advanced per evaluation
	evals int64
	fires int64
}

// New builds an injector for cfg, or nil when cfg is nil / injects
// nothing — callers can pass the result around unconditionally.
func New(cfg *Config) *Injector {
	if cfg == nil || !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: *cfg, states: make(map[Point]*pointState)}
}

// Config returns the injector's configuration (zero for nil).
func (i *Injector) Config() Config {
	if i == nil {
		return Config{}
	}
	return i.cfg
}

func (i *Injector) state(p Point) *pointState {
	s, ok := i.states[p]
	if !ok {
		s = &pointState{rng: uint64(i.cfg.Seed) ^ hashString(string(p))}
		i.states[p] = s
	}
	return s
}

// probAt returns the probability and 1-based schedule index for a
// counter-based point.
func (i *Injector) probAt(p Point) (float64, int64) {
	switch p {
	case HeapAlloc:
		return i.cfg.AllocProb, i.cfg.AllocAt
	case PageAcquire:
		return i.cfg.PageProb, i.cfg.PageAt
	case TierSpill:
		return i.cfg.TierSpillProb, i.cfg.TierSpillAt
	case TierLoad:
		return i.cfg.TierLoadProb, i.cfg.TierLoadAt
	case ServerCrash:
		return 0, i.cfg.KillAt
	case NetDrop:
		return i.cfg.Drop, 0
	case NetDup:
		return i.cfg.Dup, 0
	case NetReorder:
		return i.cfg.Reorder, 0
	case NetDelay:
		if i.cfg.DelayMax <= 0 {
			return 0, 0
		}
		return i.cfg.DelayProb, 0
	}
	return 0, 0
}

// Fire evaluates a counter-based point: it fires on the scheduled
// evaluation (if configured) or with the configured probability, drawn
// from the point's private deterministic stream.
func (i *Injector) Fire(p Point) bool {
	if i == nil {
		return false
	}
	prob, at := i.probAt(p)
	if prob == 0 && at == 0 {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	s := i.state(p)
	s.evals++
	fired := false
	if at > 0 && s.evals == at {
		fired = true
	}
	s.rng += 0x9E3779B97F4A7C15
	if !fired && prob > 0 && unit(Mix64(s.rng)) < prob {
		fired = true
	}
	if fired {
		s.fires++
	}
	return fired
}

// FireKeyed evaluates a keyed point: the decision is a pure function of
// (seed, point, key), so concurrent callers get reproducible answers.
// Fires are still counted for reporting.
func (i *Injector) FireKeyed(p Point, key uint64) bool {
	if i == nil {
		return false
	}
	prob, _ := i.probAt(p)
	if prob == 0 {
		return false
	}
	h := Mix64(uint64(i.cfg.Seed) ^ hashString(string(p)) ^ Mix64(key))
	fired := unit(h) < prob
	if fired {
		i.mu.Lock()
		s := i.state(p)
		s.fires++
		i.mu.Unlock()
	}
	return fired
}

// DelayKeyed returns the injected delay for a frame key: a keyed-uniform
// duration in (0, DelayMax]. Callers should have checked
// FireKeyed(NetDelay, key) first.
func (i *Injector) DelayKeyed(key uint64) time.Duration {
	if i == nil || i.cfg.DelayMax <= 0 {
		return 0
	}
	h := Mix64(uint64(i.cfg.Seed) ^ hashString("net.delay.len") ^ Mix64(key))
	d := time.Duration(unit(h) * float64(i.cfg.DelayMax))
	if d <= 0 {
		d = time.Nanosecond
	}
	return d
}

// CrashPlan maps Config.Crashes onto concrete (occasion, node) pairs for
// an engine with the given number of recovery occasions and nodes.
// Occasions are chosen mid-run — never occasion 0, so there is always a
// pre-crash state to checkpoint — and distinct while free occasions
// remain; nodes are chosen uniformly. The plan is a pure function of the
// seed, sorted by occasion.
func (i *Injector) CrashPlan(occasions, nodes int) Plan {
	if i == nil || i.cfg.Crashes <= 0 || occasions < 2 || nodes < 1 {
		return nil
	}
	rng := uint64(i.cfg.Seed) ^ hashString("node.crash")
	used := make(map[int]bool)
	var plan Plan
	for j := 0; j < i.cfg.Crashes; j++ {
		rng += 0x9E3779B97F4A7C15
		occ := 1 + int(Mix64(rng)%uint64(occasions-1))
		for tries := 0; used[occ] && tries < occasions; tries++ {
			occ = 1 + (occ % (occasions - 1))
		}
		used[occ] = true
		rng += 0x9E3779B97F4A7C15
		plan = append(plan, Crash{Occasion: occ, Node: int(Mix64(rng) % uint64(nodes))})
	}
	sort.Slice(plan, func(a, b int) bool { return plan[a].Occasion < plan[b].Occasion })
	return plan
}

// Fires returns how many times each point has fired so far, keyed by
// point name — the injection side of the books that recovery counters
// are audited against.
func (i *Injector) Fires() map[string]int64 {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make(map[string]int64, len(i.states))
	for p, s := range i.states {
		if s.fires > 0 {
			out[string(p)] = s.fires
		}
	}
	return out
}

// Mix64 is the splitmix64 output function — the repo's one deterministic
// hash for decorrelated per-index values (fault streams, frame keys, retry
// jitter, load plans); callers keep their own seeding arithmetic.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// hashString is FNV-1a, inlined to keep the package dependency-free.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
