package main

import (
	"fmt"

	"seqatpg/internal/bench"
	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/retime"
	"seqatpg/internal/synth"
)

// circuit is one synthesized circuit with what the workloads need.
type circuit struct {
	name     string
	c        *netlist.Circuit
	flush    int
	universe []fault.Fault // collapsed fault universe
}

// buildPairs synthesizes the named Table 2 pairs through the public
// synth and retime entry points, timing each call as a span. With
// retimed false only the original circuits are built.
func buildPairs(tr *tracer, keep func(bench.PairSpec) bool, retimed bool) (orig, re []*circuit, err error) {
	suite := bench.NewSuite(bench.QuickBudget())
	for _, spec := range bench.PairSpecs() {
		if !keep(spec) {
			continue
		}
		m, err := suite.Machine(spec.FSM)
		if err != nil {
			return nil, nil, err
		}
		end := tr.begin("synth", 0, 0)
		s, err := synth.Synthesize(m, synth.Options{Algorithm: spec.Alg, Script: spec.Script, UseUnreachableDC: true})
		end()
		if err != nil {
			return nil, nil, fmt.Errorf("synthesize %s: %w", spec.Name(), err)
		}
		flush, err := retime.FlushLength(s.Circuit)
		if err != nil {
			return nil, nil, err
		}
		orig = append(orig, &circuit{name: spec.Name(), c: s.Circuit, flush: flush,
			universe: fault.CollapsedUniverse(s.Circuit)})
		if !retimed {
			continue
		}
		end = tr.begin("retime", 0, 0)
		r, err := retime.Backward(s.Circuit, suite.Lib, spec.Rounds)
		end()
		if err != nil {
			return nil, nil, fmt.Errorf("retime %s: %w", spec.Name(), err)
		}
		re = append(re, &circuit{name: spec.Name() + ".re", c: r.Circuit, flush: r.FlushCycles,
			universe: fault.CollapsedUniverse(r.Circuit)})
	}
	return orig, re, nil
}

func notSCF(spec bench.PairSpec) bool { return spec.FSM != "scf" }
