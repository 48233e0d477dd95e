package opt

import (
	"fmt"
	"math"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/data"
	"remac/internal/lang"
	"remac/internal/plan"
	"remac/internal/sparsity"
)

// census walks s as the first run of its plan takes it, with no source of
// shared values: each name is versioned at its binds and, when the body binds
// it, at the body's and the post-loop's entry; a full reuse slot skips its
// producer; a bind empties the slots it clears. It numbers every value by
// what computes it and returns, by number, the slots that hold the value: the
// one an OpFill fills and the one a repeat reads or fills. stray counts the
// repeat marks off an operator or inside the producer of a value the run
// keeps (Keep), which runs once a run.
func census(s *Schedule) (slots map[int]map[int]bool, stray int) {
	type key struct {
		op          Opcode
		kind        plan.Kind
		x, y        int
		bits, bits2 uint64
	}
	nums, slots := map[key]int{}, map[int]map[int]bool{}
	number := func(k key) int {
		if _, ok := nums[k]; !ok {
			nums[k] = len(nums)
		}
		return nums[k]
	}
	hold := func(n, k int) {
		if slots[n] == nil {
			slots[n] = map[int]bool{}
		}
		slots[n][k] = true
	}
	bound := map[int]bool{}
	for _, in := range s.Code[s.Ends[0]:s.Ends[1]] {
		if in.Op == OpBind {
			bound[in.A] = true
		}
	}
	ver, full, stack, fresh, once := map[int]int{}, map[int]int{}, []int(nil), 0, 0
	for pc := 0; pc < len(s.Code); pc++ {
		if pc == s.Ends[0] || pc == s.Ends[1] {
			for k := range bound {
				fresh++
				ver[k] = fresh
			}
		}
		in := s.Code[pc]
		top := len(stack) - 1
		if in.Repeat && in.Op < OpFusedT {
			stray++
		}
		switch in.Op {
		case OpStmt:
		case OpBind:
			stack = stack[:top]
			fresh++
			ver[in.A] = fresh
			for _, k := range in.Clears {
				delete(full, k)
			}
		case OpLoad:
			stack = append(stack, number(key{op: OpLoad, x: in.A, y: in.B, bits: uint64(ver[in.A]), bits2: uint64(ver[in.B])}))
		case OpConst:
			stack = append(stack, number(key{op: OpConst, bits: math.Float64bits(in.Val)}))
		case OpEnter:
			if n, ok := full[in.A]; ok {
				stack = append(stack, n)
				pc += in.N
			} else if pc >= once && s.Code[pc+in.N].Keep {
				once = pc + in.N
			}
		case OpFill:
			if in.A >= 0 {
				full[in.A] = stack[top]
				hold(stack[top], in.A)
			}
		default:
			k := key{op: in.Op, kind: in.Kind, x: stack[top]}
			if in.Op >= OpBinary {
				k.x, k.y = stack[top-1], stack[top]
				if in.Swap {
					k.x, k.y = k.y, k.x
				}
				stack = stack[:top]
				top--
			}
			stack[top] = number(k)
			if in.Repeat {
				hold(stack[top], in.A)
				if pc < once {
					stray++
				}
			}
		}
	}
	return slots, stray
}

// hoistedChainScript has a loop-constant chain of three inputs, which some
// plans hoist whole: an LSE producer with more than one charged operator.
const hoistedChainScript = `
A = read("A")
b = read("b")
x = read("x0")
H = read("H0")
i = 0
while (i < 3) {
    g = t(A) %*% A %*% H %*% x - t(A) %*% b
    x = x - 0.0001 * g
    i = i + 1
}
`

// TestCensusOneSlotPerValue compiles every algorithm the grid runs on every
// dataset under every strategy, and hoistedChainScript with DFP's inputs, and
// takes the census of each schedule: no value may have two slots. In
// particular no repeat may fall inside the producer of a value the run keeps:
// from the second iteration on the producer is skipped, and a repeat slot
// there holds a second reference to a value that nothing reads.
func TestCensusOneSlotPerValue(t *testing.T) {
	strategies := []Strategy{NoElimination, Explicit, Conservative, Aggressive, Automatic, Adaptive, SPORESLike}
	names := append(append([]string(nil), data.Names...), data.ZipfNames...)
	schedules, bad, deep := 0, 0, 0
	for _, alg := range []algorithms.Name{algorithms.GD, algorithms.DFP, algorithms.BFGS, algorithms.GNMF, ""} {
		prog, metaAlg := lang.MustParse(hoistedChainScript), algorithms.DFP
		if alg != "" {
			prog, metaAlg = algorithms.MustProgram(alg, 3), alg
		}
		for _, ds := range names {
			metas := inputMetas(t, metaAlg, ds)
			for _, strategy := range strategies {
				what := fmt.Sprintf("%v/%s/%v", alg, ds, strategy)
				c, err := Compile(prog, metas, Config{Strategy: strategy, Estimator: sparsity.MNC{},
					Cluster: cluster.DefaultConfig(), Iterations: 3})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				s, err := c.Schedule()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				schedules++
				for pc, in := range s.Code {
					if in.Op == OpEnter && s.Code[pc+in.N].Keep && countOps(s.Code[pc:pc+in.N], OpMul) > 1 {
						deep++
					}
				}
				slots, stray := census(s)
				shared := 0
				for _, ks := range slots {
					if len(ks) > 1 {
						shared++
					}
				}
				if shared > 0 || stray > 0 {
					bad++
					t.Logf("%s: %d values with two slots, %d stray repeat marks", what, shared, stray)
				}
			}
		}
	}
	if schedules != 308+77 || deep == 0 {
		t.Fatalf("took the census of %d schedules, %d kept producers of more than one product: want 385, and some", schedules, deep)
	}
	if bad > 0 {
		t.Fatalf("%d of %d schedules give a value two slots", bad, schedules)
	}
}

func countOps(code []Instr, op Opcode) (n int) {
	for _, in := range code {
		if in.Op == op {
			n++
		}
	}
	return n
}
