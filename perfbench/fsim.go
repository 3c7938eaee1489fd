package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"seqatpg/internal/bench"
	"seqatpg/internal/fault"
	"seqatpg/internal/sim"
)

const (
	// fsimSeqLen is the number of random vectors after the flush prefix.
	fsimSeqLen = 48
	// fsimWorkers is the worker count of DetectsParallel, one per vCPU
	// of the two-CPU machine the benchmark was sized on.
	fsimWorkers = 2
	// fsimOpsPerSecond sizes the operation list from --seconds.
	fsimOpsPerSecond = 60
	// fsimSLO is the per-call latency limit, about three times the p90.
	fsimSLO = 150 * time.Millisecond
	// fsimCheckEvery re-grades every n-th sequence with the serial
	// narrow kernel after the measured phase; results must be equal.
	fsimCheckEvery = 16
)

type fsimOp struct {
	circ *circuit
	sim  *fault.Simulator
	seq  [][]sim.Val
}

type fsimInstance struct {
	circuits []*circuit
	sims     []*fault.Simulator
	ops      []fsimOp
}

// setupFSim builds the scf and s510 pairs, original and retimed, and
// one simulator per circuit at the automatic width. Each operation
// grades one seeded random sequence against a circuit's full collapsed
// universe; circuits are visited in seeded rounds so every circuit gets
// the same number of operations.
func setupFSim(ctx context.Context, e *env, tr *tracer) (instance, error) {
	keep := func(s bench.PairSpec) bool { return s.FSM == "scf" || s.FSM == "s510" }
	orig, re, err := buildPairs(tr, keep, true)
	if err != nil {
		return nil, err
	}
	inst := &fsimInstance{circuits: append(orig, re...)}
	for _, c := range inst.circuits {
		s, err := fault.NewSimulator(c.c)
		if err != nil {
			return nil, err
		}
		s.Width = fault.WidthAuto
		inst.sims = append(inst.sims, s)
	}
	rng := rand.New(rand.NewSource(e.seed))
	n := len(inst.circuits)
	total := max(n, int(fsimOpsPerSecond*float64(e.seconds)+0.5)/n*n)
	for len(inst.ops) < total {
		for _, k := range rng.Perm(n) {
			c := inst.circuits[k]
			inst.ops = append(inst.ops, fsimOp{circ: c, sim: inst.sims[k], seq: randomSequence(rng, c, fsimSeqLen)})
		}
	}
	// Warm-up: grade one sequence per circuit, untimed, so pools and
	// the automatic width choice have settled before measuring.
	warm := rand.New(rand.NewSource(-1))
	for k, c := range inst.circuits {
		if _, err := inst.sims[k].DetectsParallel(ctx, randomSequence(warm, c, fsimSeqLen), c.universe, fsimWorkers); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", c.name, err)
		}
		inst.sims[k].ResetStats()
	}
	return inst, nil
}

// randomSequence is the circuit's flush prefix (reset held, other
// inputs 0) followed by n random vectors with reset released.
func randomSequence(rng *rand.Rand, c *circuit, n int) [][]sim.Val {
	var seq [][]sim.Val
	for f := 0; f < c.flush+n; f++ {
		v := make([]sim.Val, len(c.c.PIs))
		for i, id := range c.c.PIs {
			switch {
			case id == c.c.ResetPI:
				v[i] = sim.V0
				if f < c.flush {
					v[i] = sim.V1
				}
			case f < c.flush:
				v[i] = sim.V0
			default:
				v[i] = sim.Val(rng.Intn(2))
			}
		}
		seq = append(seq, v)
	}
	return seq
}

func (f *fsimInstance) run(ctx context.Context, tr *tracer) (*phase, error) {
	ph := newPhase(fsimSLO)
	for _, s := range f.sims {
		s.ResetStats()
	}
	results := make([][]bool, len(f.ops))
	start := time.Now()
	for i, op := range f.ops {
		end := tr.begin("fault", 0, int64(i+1))
		t0 := time.Now()
		det, err := op.sim.DetectsParallel(ctx, op.seq, op.circ.universe, fsimWorkers)
		d := time.Since(t0)
		end()
		ph.op(d, err == nil)
		results[i] = det
	}
	ph.work = time.Since(start)

	busy := ph.busy()
	detected, total := 0, 0
	for i, det := range results {
		for _, d := range det {
			if d {
				detected++
			}
		}
		total += len(f.ops[i].circ.universe)
	}
	refs := map[*circuit]*fault.Simulator{}
	for i := 0; i < len(f.ops); i += fsimCheckEvery {
		op := f.ops[i]
		if results[i] == nil {
			continue
		}
		ref, ok := refs[op.circ]
		if !ok {
			var err error
			if ref, err = fault.NewSimulator(op.circ.c); err != nil {
				return nil, err
			}
			refs[op.circ] = ref
		}
		want, err := ref.Detects(op.seq, op.circ.universe)
		if err != nil {
			return nil, mismatch("reference grading of op %d: %v", i, err)
		}
		for k := range want {
			if want[k] != results[i][k] {
				return nil, mismatch("op %d on %s: fault %v detected=%v, serial narrow kernel says %v",
					i, op.circ.name, op.circ.universe[k], results[i][k], want[k])
			}
		}
	}

	// Grading makes no redundancy proofs, so efficiency equals coverage.
	ph.quality(detected, 0, total)
	var fs fault.Stats
	for _, s := range f.sims {
		st := s.Stats()
		fs.GateEvals += st.GateEvals
		fs.GateEvalsAvoided += st.GateEvalsAvoided
		fs.Events += st.Events
		fs.Batches += st.Batches
		fs.EarlyExits += st.EarlyExits
	}
	ph.layer["fault.busy_s"] = busy.Seconds()
	ph.layer["fault.gate_evals"] = float64(fs.GateEvals)
	ph.layer["fault.events"] = float64(fs.Events)
	ph.layer["fault.batches"] = float64(fs.Batches)
	ph.layer["fault.early_exits"] = float64(fs.EarlyExits)
	if all := fs.GateEvals + fs.GateEvalsAvoided; all > 0 {
		ph.layer["fault.avoided_ratio"] = float64(fs.GateEvalsAvoided) / float64(all)
	}
	if busy > 0 {
		ph.layer["fault.gate_evals_per_s"] = float64(fs.GateEvals) / busy.Seconds()
	}
	ph.exact["fault.gate_evals"] = fs.GateEvals
	ph.exact["fault.detected"] = int64(detected)
	return ph, nil
}

func (f *fsimInstance) close() {}
