package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"seqatpg/internal/atpg"
	"seqatpg/internal/atpg/hitec"
	"seqatpg/internal/atpg/sest"
	"seqatpg/internal/campaign"
	"seqatpg/internal/fault"
)

const (
	// atpgFaultsPerJob keeps one job near 80 ms: most faults on the
	// retimed circuits abort, so a job costs about its budget ladder.
	atpgFaultsPerJob = 2
	// atpgBudgetPerGate is the first-pass per-fault budget in gate
	// evaluations per gate; the retry ladder doubles it twice.
	atpgBudgetPerGate = 50
	atpgRetries       = 2
	// atpgJobsPerSecond sizes the job list from --seconds.
	atpgJobsPerSecond = 0.8
	// atpgSLO is the per-job latency limit, about three times the p90.
	atpgSLO = 400 * time.Millisecond
	// atpgReplayEvery re-runs every n-th job after the measured phase
	// and requires identical verdicts and charged effort.
	atpgReplayEvery = 10
)

var atpgEngines = []string{"hitec", "sest-cdcl"}

type atpgJob struct {
	circ   *circuit
	faults []fault.Fault
	engine string
	cfg    campaign.Config
}

type atpgInstance struct {
	jobs []atpgJob
}

// setupATPG builds the 14 non-scf retimed Table 2 circuits and the job
// list. Each circuit contributes a fixed stride sample of its collapsed
// fault universe, half of it for each engine. The jobs are the same for
// every seed, so coverage, charged effort and the latency distribution
// do not move with the seed; the seed shuffles the order the jobs run
// in, which keeps a host slowdown from landing on all of one circuit's
// jobs at once.
func setupATPG(ctx context.Context, e *env, tr *tracer) (instance, error) {
	_, re, err := buildPairs(tr, notSCF, true)
	if err != nil {
		return nil, err
	}
	perCircuit := max(2, int(atpgJobsPerSecond*float64(e.seconds)+0.5))
	perCircuit += perCircuit % len(atpgEngines) // as many jobs for each engine
	rng := rand.New(rand.NewSource(e.seed))
	inst := &atpgInstance{}
	for _, c := range re {
		n := perCircuit * atpgFaultsPerJob
		stride := len(c.universe) / n
		if stride == 0 {
			return nil, fmt.Errorf("%s: %d faults, need %d", c.name, len(c.universe), n)
		}
		// Sample position i goes to engine i mod 2. Job k of an engine
		// takes its k-th position and the one half the sample further
		// on, so each job is a stride-sampled chunk of the circuit.
		half := n / atpgFaultsPerJob
		for e, eng := range atpgEngines {
			for k := e; k < half; k += len(atpgEngines) {
				var chunk []fault.Fault
				for j := 0; j < atpgFaultsPerJob; j++ {
					chunk = append(chunk, c.universe[(k+j*half)*stride+stride/2])
				}
				inst.jobs = append(inst.jobs, newATPGJob(c, chunk, eng))
			}
		}
	}
	rng.Shuffle(len(inst.jobs), func(a, b int) { inst.jobs[a], inst.jobs[b] = inst.jobs[b], inst.jobs[a] })

	// Warm-up: one job per engine on the smallest circuit, untimed.
	for _, eng := range atpgEngines {
		w := newATPGJob(re[0], re[0].universe[:atpgFaultsPerJob], eng)
		if _, err := campaign.Run(ctx, w.circ.c, w.faults, w.cfg); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return inst, nil
}

func newATPGJob(c *circuit, faults []fault.Fault, engine string) atpgJob {
	budget := int64(atpgBudgetPerGate * c.c.NumGates())
	var cfg atpg.Config
	if engine == "hitec" {
		cfg = hitec.DefaultConfig(c.flush, budget)
	} else {
		cfg = sest.CdclConfig(c.flush, budget)
	}
	return atpgJob{circ: c, faults: faults, engine: engine,
		cfg: campaign.Config{Engine: cfg, Retries: atpgRetries}}
}

// atpgRecord is what must repeat exactly when a job is run again.
type atpgRecord struct {
	verdicts   string
	effort     int64
	backtracks int64
	passes     int
}

func recordOf(res *campaign.Result) atpgRecord {
	var b strings.Builder
	for _, o := range res.Outcomes {
		b.WriteString(o.String()[:1])
	}
	return atpgRecord{verdicts: b.String(), effort: res.Stats.Effort, backtracks: res.Stats.Backtracks, passes: res.Passes}
}

func (a *atpgInstance) run(ctx context.Context, tr *tracer) (*phase, error) {
	ph := newPhase(atpgSLO)
	results := make([]*campaign.Result, len(a.jobs))
	start := time.Now()
	for i, j := range a.jobs {
		end := tr.begin("campaign", 0, int64(i+1))
		t0 := time.Now()
		res, err := campaign.Run(ctx, j.circ.c, j.faults, j.cfg)
		d := time.Since(t0)
		end()
		if err == nil && (res.Interrupted || res.Stats.Crashed > 0) {
			err = fmt.Errorf("interrupted or crashed")
		}
		ph.op(d, err == nil)
		if err != nil {
			continue
		}
		results[i] = res
	}
	ph.work = time.Since(start)

	busy := ph.busy()
	var st atpg.Stats
	passes := 0
	for i, res := range results {
		if res == nil {
			continue
		}
		if err := verifyATPG(a.jobs[i], res); err != nil {
			return nil, mismatch("job %d (%s on %s): %v", i, a.jobs[i].engine, a.jobs[i].circ.name, err)
		}
		s := res.Stats
		st.Total += s.Total
		st.Detected += s.Detected
		st.Redundant += s.Redundant
		st.Aborted += s.Aborted
		st.Effort += s.Effort
		st.Backtracks += s.Backtracks
		st.LearnHits += s.LearnHits
		st.LearnPrunes += s.LearnPrunes
		st.LearnedCubes += s.LearnedCubes
		st.Backjumps += s.Backjumps
		st.Restarts += s.Restarts
		passes += res.Passes
	}
	for i := 0; i < len(a.jobs); i += atpgReplayEvery {
		if results[i] == nil {
			continue
		}
		j := a.jobs[i]
		again, err := campaign.Run(ctx, j.circ.c, j.faults, j.cfg)
		if err != nil {
			return nil, mismatch("replay of job %d: %v", i, err)
		}
		if got, want := recordOf(again), recordOf(results[i]); got != want {
			return nil, mismatch("replay of job %d differs: %+v, first run %+v", i, got, want)
		}
	}

	ph.quality(st.Detected, st.Redundant, st.Total)
	addATPGLayers(ph, st, passes, len(ph.lat), busy)
	return ph, nil
}

// addATPGLayers fills the campaign and atpg per-layer metrics and the
// exact counts from summed campaign statistics.
func addATPGLayers(ph *phase, st atpg.Stats, passes, jobs int, busy time.Duration) {
	ph.layer["campaign.busy_s"] = busy.Seconds()
	ph.layer["campaign.jobs"] = float64(jobs)
	ph.layer["campaign.passes"] = float64(passes)
	ph.layer["atpg.gate_evals"] = float64(st.Effort)
	ph.layer["atpg.backtracks"] = float64(st.Backtracks)
	ph.layer["atpg.learn_hits"] = float64(st.LearnHits)
	ph.layer["atpg.learn_prunes"] = float64(st.LearnPrunes)
	ph.layer["atpg.learned_cubes"] = float64(st.LearnedCubes)
	ph.layer["atpg.backjumps"] = float64(st.Backjumps)
	ph.layer["atpg.restarts"] = float64(st.Restarts)
	ph.layer["atpg.detected"] = float64(st.Detected)
	ph.layer["atpg.redundant"] = float64(st.Redundant)
	ph.layer["atpg.aborted"] = float64(st.Aborted)
	if busy > 0 {
		ph.layer["atpg.gate_evals_per_s"] = float64(st.Effort) / busy.Seconds()
	}
	if st.Effort > 0 {
		ph.layer["atpg.resolved_per_mevals"] = float64(st.Detected+st.Redundant) / (float64(st.Effort) / 1e6)
	}
	for _, k := range []string{"atpg.gate_evals", "atpg.detected", "atpg.redundant", "atpg.aborted", "campaign.passes"} {
		ph.exact[k] = int64(ph.layer[k])
	}
}

// verifyATPG checks one campaign result without trusting the engine:
// the verdicts must account for every fault, and every fault claimed
// detected must be detected when its job's tests are fault-simulated
// from power-up.
func verifyATPG(j atpgJob, res *campaign.Result) error {
	s := res.Stats
	if s.Total != len(j.faults) || s.Detected+s.Redundant+s.Aborted != s.Total {
		return fmt.Errorf("verdict counts %d+%d+%d do not cover %d faults", s.Detected, s.Redundant, s.Aborted, len(j.faults))
	}
	var claimed []fault.Fault
	for k, o := range res.Outcomes {
		if o == atpg.Detected {
			claimed = append(claimed, j.faults[k])
		}
	}
	if len(claimed) == 0 {
		return nil
	}
	sim, err := fault.NewSimulator(j.circ.c)
	if err != nil {
		return err
	}
	seen := make([]bool, len(claimed))
	for _, seq := range res.Tests {
		det, err := sim.Detects(seq, claimed)
		if err != nil {
			return err
		}
		for k, d := range det {
			seen[k] = seen[k] || d
		}
	}
	for k, ok := range seen {
		if !ok {
			return fmt.Errorf("fault %v claimed detected, but no test detects it", claimed[k])
		}
	}
	return nil
}

func (a *atpgInstance) close() {}
