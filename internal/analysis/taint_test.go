package analysis

// Table test for the shared taint driver (taint.go): a toy client with one
// register set — a const 7 taints its destination, moves carry, every other
// definition kills — run from an outside-an-iteration entry. The fixpoint
// in- and out-state of every block and the replay order are pinned.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
)

func intr(sym string) ir.Instr {
	in := instr(ir.OpIntr)
	in.Sym = sym
	return in
}

func (s *taintState) String() string {
	var regs []string
	for r := 0; r < 64*len(s.set(0)); r++ {
		if s.set(0).Has(r) {
			regs = append(regs, fmt.Sprintf("r%d", r))
		}
	}
	at := map[region]string{{}: "none", regionInside: "inside", regionOutside: "outside", regionUnknown: "unknown"}[s.at]
	return strings.Join(regs, ",") + "@" + at
}

func TestRunTaint(t *testing.T) {
	cases := []struct {
		name      string
		f         *ir.Func
		ins, outs []string // per block ID
		replay    string   // block.index of every visit, in order
	}{{
		// b0 -> {b1, b2} -> b3: r0 is tainted in b0; the b1 arm enters an
		// iteration and copies r0 to r1, the b2 arm overwrites r0. The join
		// takes the union of both, and of both regions.
		name: "diamond",
		f: mkFunc(3,
			[]ir.Instr{konst(0, 7), br(2, 1, 2)},
			[]ir.Instr{intr("iterStart"), mov(1, 0), jmp(3)},
			[]ir.Instr{konst(0, 1), jmp(3)},
			[]ir.Instr{ret(1)},
		),
		ins:    []string{"@outside", "r0@outside", "r0@outside", "r0,r1@unknown"},
		outs:   []string{"r0@outside", "r0,r1@inside", "@outside", "r0,r1@unknown"},
		replay: "0.0 0.1 2.0 2.1 1.0 1.1 1.2 3.0",
	}, {
		// b0 -> b1 <-> b2, b1 -> b3: the body taints r1, copies it to r0 and
		// never leaves the iteration it enters, so the header's in-state only
		// settles on the second sweep, once the back edge has been merged.
		name: "loop",
		f: mkFunc(3,
			[]ir.Instr{konst(0, 1), jmp(1)},
			[]ir.Instr{br(2, 2, 3)},
			[]ir.Instr{intr("iterStart"), konst(1, 7), mov(0, 1), jmp(1)},
			[]ir.Instr{ret(0)},
		),
		ins:    []string{"@outside", "r0,r1@unknown", "r0,r1@unknown", "r0,r1@unknown"},
		outs:   []string{"@outside", "r0,r1@unknown", "r0,r1@inside", "r0,r1@unknown"},
		replay: "0.0 0.1 1.0 3.0 2.0 2.1 2.2 2.3",
	}, {
		// b1 is unreachable: b2, which it shares with b0, must see b0's state
		// alone, and b3, whose only predecessor is b1, is never visited.
		name: "unreachable predecessor",
		f: mkFunc(3,
			[]ir.Instr{konst(0, 7), jmp(2)},
			[]ir.Instr{intr("iterStart"), konst(1, 7), br(2, 2, 3)},
			[]ir.Instr{ret(0)},
			[]ir.Instr{ret(1)},
		),
		ins:    []string{"@outside", "@none", "r0@outside", "@none"},
		outs:   []string{"r0@outside", "@none", "r0@outside", "@none"},
		replay: "0.0 0.1 2.0",
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := BuildCFG(tc.f)
			_, liveOut := liveness(c, &scratch{})
			after := liveAfterAll(c, liveOut, &scratch{})
			at := map[*ir.Instr]string{}
			liveAt := map[*ir.Instr]BitSet{}
			for b, blk := range tc.f.Blocks {
				for j := range blk.Instrs {
					at[&blk.Instrs[j]] = fmt.Sprintf("%d.%d", b, j)
					if c.Reachable(b) {
						liveAt[&blk.Instrs[j]] = after.at(b, j)
					}
				}
			}
			var replay []string
			ins, outs := runTaint(c, after, 1, &scratch{},
				func(entry *taintState) { entry.at = regionOutside },
				func(s *taintState, in *ir.Instr) {
					switch {
					case in.Dst == ir.NoReg:
					case in.Op == ir.OpConst && in.Imm == 7,
						in.Op == ir.OpMove && s.set(0).Has(int(in.A)):
						s.set(0).Set(int(in.Dst))
					default:
						s.set(0).Clear(int(in.Dst))
					}
				},
				func(s *taintState, in *ir.Instr, live BitSet) {
					replay = append(replay, at[in])
					if !live.Equal(liveAt[in]) {
						t.Errorf("visit of %s got live-after %v, want %v", at[in], live, liveAt[in])
					}
				})
			for b := range tc.f.Blocks {
				if got := ins[b].String(); got != tc.ins[b] {
					t.Errorf("in-state of b%d = %s, want %s", b, got, tc.ins[b])
				}
				if got := outs[b].String(); got != tc.outs[b] {
					t.Errorf("out-state of b%d = %s, want %s", b, got, tc.outs[b])
				}
			}
			if got := strings.Join(replay, " "); got != tc.replay {
				t.Errorf("replay order %q, want %q", got, tc.replay)
			}
		})
	}
}
