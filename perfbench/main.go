// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per invocation in a single process, times calls into the
// public entry points of each layer, reads the layers' public counters,
// checks every output for correctness, and prints one JSON object as
// the last line of standard output.
//
//	go build -o perfbench . && ./perfbench --workload atpg-retimed --seed 1 --seconds 15 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setups is how many times a run builds its workload from scratch;
// setup_s is the median.
const setups = 3

// buildDir holds everything the benchmark writes, relative to the
// directory it runs in (the root of a checkout).
var buildDir = filepath.Join(".bench_build", "perfbench")

type workload struct {
	name  string
	setup func(ctx context.Context, e *env, tr *tracer) (instance, error)
}

var workloads = []workload{
	{"atpg-retimed", setupATPG},
	{"fsim-grade", setupFSim},
	{"serve-zipf", setupServe},
}

// instance is one set-up workload, ready for its measured phase.
type instance interface {
	run(ctx context.Context, tr *tracer) (*phase, error)
	close()
}

// env is what a workload's setup gets from the command line.
type env struct {
	seed    int64
	seconds int
}

// phase is the outcome of one measured phase over a fixed list of
// operations.
type phase struct {
	lat       []time.Duration // successful operations only
	attempted int
	failed    int
	sloLimit  time.Duration
	sloMet    int
	work      time.Duration
	detected  int
	redundant int
	total     int
	layer     map[string]float64
	exact     map[string]int64 // counts that repeat exactly for a seed
	notes     []string         // extra lines for the human-readable report
	samples   map[string]int   // sample counts behind per-layer percentiles
}

func newPhase(slo time.Duration) *phase {
	return &phase{sloLimit: slo, layer: map[string]float64{}, exact: map[string]int64{}, samples: map[string]int{}}
}

func (p *phase) op(d time.Duration, ok bool) {
	p.attempted++
	if !ok {
		p.failed++
		return
	}
	p.lat = append(p.lat, d)
	if d <= p.sloLimit {
		p.sloMet++
	}
}

// busy is the summed latency of the successful operations.
func (p *phase) busy() time.Duration {
	var t time.Duration
	for _, d := range p.lat {
		t += d
	}
	return t
}

func (p *phase) quality(detected, redundant, total int) {
	p.detected, p.redundant, p.total = detected, redundant, total
}

// errMismatch marks a correctness failure, as opposed to a failure to
// run at all.
var errMismatch = errors.New("correctness check failed")

func mismatch(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: atpg-retimed, fsim-grade or serve-zipf")
	seed := fl.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fl.Int("seconds", 15, "sizes the fixed operation list to take about this long")
	trace := fl.Int("trace", 0, "1 adds a traced run and reports per-layer metrics instead of end-to-end ones")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload atpg-retimed|fsim-grade|serve-zipf, --seconds >= 1, --trace 0|1\n")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	e := &env{seed: *seed, seconds: *seconds}

	res, err := measure(ctx, w, e, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		if errors.Is(err, errMismatch) {
			out, _ := json.Marshal(result{Correct: false, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]metric{}})
			fmt.Fprintln(stdout, string(out))
		}
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// measure sets the workload up several times and runs the measured
// phase untraced. With trace set it then runs a traced phase and one
// more untraced phase, each on a fresh setup.
func measure(ctx context.Context, w *workload, e *env, trace bool, stdout io.Writer) (result, error) {
	var setupTimes []float64
	var inst instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(ctx, e, nil); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	mem0 := readMem()
	ph, err := inst.run(ctx, nil)
	mem1 := readMem()
	inst.close()
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	if err := checkDigest(w.name, e, ph.exact); err != nil {
		return res, err
	}

	if !trace {
		res.Metrics = endToEnd(ph, setupTimes)
		printMetrics(stdout, w.name, res.Metrics, ph)
		return res, nil
	}

	// The traced phase runs between two untraced ones, each on a fresh
	// setup, so the overhead estimate is not biased by running order.
	tr := newTracer()
	tph, err := setupAndRun(ctx, w, e, tr)
	if err != nil {
		return res, err
	}
	after, err := setupAndRun(ctx, w, e, nil)
	if err != nil {
		return res, err
	}
	for _, p := range []*phase{tph, after} {
		for k, v := range ph.exact {
			if p.exact[k] != v {
				return res, mismatch("%s is %d on a repeated phase, %d on the first", k, p.exact[k], v)
			}
		}
	}
	path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, e.seed))
	if err := tr.write(path); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	res.Metrics = perLayer(tph, tr, mem0, mem1, (ph.busy()+after.busy())/2)
	printMetrics(stdout, w.name, res.Metrics, tph)
	fmt.Fprintf(stdout, "spans: %s\n", path)
	return res, nil
}

// setupAndRun sets the workload up once more and runs one phase on it.
func setupAndRun(ctx context.Context, w *workload, e *env, tr *tracer) (*phase, error) {
	inst, err := w.setup(ctx, e, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	return inst.run(ctx, tr)
}

// endToEnd derives the user-visible metrics of an untraced phase.
func endToEnd(ph *phase, setupTimes []float64) map[string]metric {
	m := map[string]metric{
		"setup_s":        {medianFloat(setupTimes), "s"},
		"work_s":         {ph.work.Seconds(), "s"},
		"latency_p50_ms": {percentile(ph.lat, 0.5), "ms"},
		"latency_p90_ms": {percentile(ph.lat, 0.9), "ms"},
		"success_pct":    {100 * float64(ph.attempted-ph.failed) / float64(ph.attempted), "%"},
		"slo_met_pct":    {100 * float64(ph.sloMet) / float64(ph.attempted), "%"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
	}
	if ph.total > 0 {
		m["fault_coverage_pct"] = metric{100 * float64(ph.detected) / float64(ph.total), "%"}
		m["fault_efficiency_pct"] = metric{100 * float64(ph.detected+ph.redundant) / float64(ph.total), "%"}
	}
	return m
}

// layerUnits lists every per-layer metric with its unit. Every workload
// reports all of them; a layer the workload does not reach reads 0.
var layerUnits = map[string]string{
	"synth.busy_s": "s", "retime.busy_s": "s",
	"campaign.busy_s": "s", "campaign.jobs": "count", "campaign.passes": "count",
	"atpg.gate_evals": "count", "atpg.backtracks": "count", "atpg.learn_hits": "count",
	"atpg.learn_prunes": "count", "atpg.learned_cubes": "count", "atpg.backjumps": "count",
	"atpg.restarts": "count", "atpg.detected": "count", "atpg.redundant": "count",
	"atpg.aborted": "count", "atpg.gate_evals_per_s": "1/s", "atpg.resolved_per_mevals": "1/Mevals",
	"fault.busy_s": "s", "fault.gate_evals": "count", "fault.events": "count", "fault.batches": "count",
	"fault.early_exits": "count", "fault.avoided_ratio": "ratio", "fault.gate_evals_per_s": "1/s",
	"service.submit_ms_p50": "ms", "service.queue_wait_ms_p50": "ms", "service.run_ms_p50": "ms",
	"service.rejected": "count", "service.queue_depth_max": "count",
	"predict.prepare_ms_p50": "ms",
	"rescache.hit_ratio":     "ratio", "rescache.evictions": "count", "rescache.bytes": "bytes",
	"ioguard.fsyncs_per_op": "count", "ioguard.write_busy_ms": "ms", "ioguard.bytes_written": "bytes",
	"runtime.alloc_mb": "MB", "runtime.gc_pause_ms": "ms",
	"loadgen.sent": "count", "loadgen.late_p99_ms": "ms",
	"self.synth_s": "s", "self.retime_s": "s", "self.campaign_s": "s", "self.fault_s": "s",
	"self.loadgen_s": "s", "self.service_s": "s", "self.predict_s": "s", "self.ioguard_s": "s",
	"trace.spans": "count", "trace.overhead_pct": "%",
}

// perLayer derives the per-layer metrics of the traced phase. Span
// self times are summed per layer (the span name up to its first dot);
// the tracing overhead compares the traced phase's summed operation
// latency with the mean of the untraced phases before and after it.
func perLayer(ph *phase, tr *tracer, mem0, mem1 memSnap, untraced time.Duration) map[string]metric {
	m := map[string]metric{}
	for name, unit := range layerUnits {
		m[name] = metric{ph.layer[name], unit}
	}
	self := map[string]time.Duration{}
	for name, d := range tr.selfTimes() {
		layer, _, _ := strings.Cut(name, ".")
		self[layer] += d
	}
	for layer, d := range self {
		if _, ok := layerUnits["self."+layer+"_s"]; ok {
			m["self."+layer+"_s"] = metric{d.Seconds(), "s"}
		}
	}
	m["synth.busy_s"] = metric{self["synth"].Seconds(), "s"}
	m["retime.busy_s"] = metric{self["retime"].Seconds(), "s"}
	m["runtime.alloc_mb"] = metric{float64(mem1.alloc-mem0.alloc) / (1 << 20), "MB"}
	m["runtime.gc_pause_ms"] = metric{float64(mem1.pause-mem0.pause) / 1e6, "ms"}
	m["trace.spans"] = metric{float64(tr.count()), "count"}
	m["trace.overhead_pct"] = metric{100 * (ph.busy().Seconds() - untraced.Seconds()) / untraced.Seconds(), "%"}
	return m
}

// printMetrics writes one human-readable line per metric: name, value,
// unit, and the sample count behind latency figures.
func printMetrics(w io.Writer, workload string, m map[string]metric, ph *phase) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s: %d operations, %d failed, %d latency samples, %d beyond p90\n",
		workload, ph.attempted, ph.failed, len(ph.lat), beyond(ph.lat, 0.9))
	for _, n := range ph.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, k := range names {
		note := ""
		if strings.HasPrefix(k, "latency_") {
			note = fmt.Sprintf("  (n=%d)", len(ph.lat))
		} else if n, ok := ph.samples[k]; ok {
			note = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintf(w, "  %-28s %16.6f %-8s%s\n", k, m[k].Value, m[k].Unit, note)
	}
}

// checkDigest compares the run's exact counts with those recorded by
// the first run of the same workload, seed and size with the same
// executable, and records them if this is that first run.
func checkDigest(name string, e *env, exact map[string]int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	path := filepath.Join(buildDir, "digests",
		fmt.Sprintf("%s-seed%d-s%d-%s.json", name, e.seed, e.seconds, hex.EncodeToString(sum[:6])))
	want := map[string]int64{}
	if old, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(old, &want); err != nil {
			return fmt.Errorf("digest %s: %w", path, err)
		}
		for k, v := range want {
			if exact[k] != v {
				return mismatch("%s is %d, the recorded digest for this seed says %d", k, exact[k], v)
			}
		}
		return nil
	}
	out, err := json.Marshal(exact)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
