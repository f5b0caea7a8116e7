// Command perfbench is the repository's benchmark. It builds seeded
// inputs, runs one workload against the public functions of the sim,
// experiments/profile, traceio and serve packages for a fixed time,
// checks every simulated result and every decision, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	go run . -workload eval-mem -seed 1 -seconds 20 -trace 0
//
// run from the repository root via perfbench/run.sh, which builds the
// binary inside the checkout. See README.md for the workloads, the
// metrics and the layer map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// instance is one set-up workload, ready to run passes. A pass runs
// the workload's fixed operation list once, so every pass does the
// same work and pass times compare directly.
type instance interface {
	// warmup runs work that is never timed: first-touch allocation,
	// connection set-up, lazily built tables.
	warmup() error
	pass(sp *spans, g *gate) (passStats, error)
	close() error
}

// passStats is what one pass measured.
type passStats struct {
	wall, cpu time.Duration // the timed section, by stopwatch
	work      float64       // warp instructions simulated, or decisions served
	// counters are the pass's per-layer counts and ratios, keyed by
	// per-layer metric name.
	counters map[string]float64
	// latency samples by name (serve-mixed), in the metric's unit.
	latency map[string][]float64
}

// workloadDef names a workload and builds its instances.
type workloadDef struct {
	name, why string
	// load states how the workload generates load and what state the
	// program starts from.
	load string
	// setup generates the seeded inputs and builds an instance whose
	// scratch files live under dir.
	setup func(seed int64, dir string) (instance, error)
}

var workloadDefs = []workloadDef{evalMemDef, computeDef, campaignDef, serveMixedDef}

// Set-up is timed in batches. Each batch builds the workload until the
// set-up calls have used setupBatchCPU of process CPU time and yields
// the CPU time per set-up; setup_s is the median over the batches. One
// set-up takes from 0.2 ms (building a catalogue) to a few ms, far too
// little to time one at a time on a shared host. The first batch builds
// the instance the run measures; an untraced run then times one more
// batch after every pass, and tops up to setupBatches at the end, so
// set-up is sampled across the run as the passes are.
const (
	setupBatches  = 7
	setupBatchCPU = 250 * time.Millisecond
)

func main() {
	name := flag.String("workload", "", "workload to run: eval-mem, compute, campaign or serve-mixed")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 20, "measured time in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	writeGolden := flag.Bool("write-golden", false, "record this seed's result digests in perfbench/golden.json")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *writeGolden); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traced int, writeGolden bool) error {
	var def *workloadDef
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			def = &workloadDefs[i]
		}
	}
	if def == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || (traced != 0 && traced != 1) {
		return errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	gold, err := loadGolden()
	if err != nil {
		return err
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "perfbench-run", fmt.Sprintf("%s-%d", name, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	env := describeHost()
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", name, seed, seconds, traced)
	fmt.Printf("host: %s\n", env)
	fmt.Printf("workload: %s\n", def.why)
	fmt.Printf("load: %s\n", def.load)

	st := &setupTimer{def: def, seed: seed, dir: work}
	inst, err := st.batch()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	if err := inst.warmup(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	g := newGate(gold, name, seed)
	sp := &spans{}
	budget := time.Duration(seconds) * time.Second
	var rep report
	if traced == 0 {
		rep, err = measure(inst, g, sp, budget, st)
	} else {
		rep, err = measureTraced(inst, g, sp, budget, filepath.Join(work, "cpu"))
	}
	if err != nil {
		return err
	}
	if writeGolden {
		if err := g.writeGolden(seed); err != nil {
			return err
		}
		fmt.Printf("golden: recorded %d items for seed %d\n", len(g.first), seed)
	}
	rep.Attempted, rep.Failed = g.attempted, g.failed
	rep.Correct = g.failed == 0 && g.attempted > 0
	golden := "checked against golden.json"
	switch {
	case len(g.first) == 0:
		golden = "decisions checked against an in-process serve.Decider"
	case !g.hasGolden():
		golden = "no golden digests for this seed: checked pass against pass"
	}
	fmt.Printf("correctness: %d attempted, %d failed (fail_ratio %.4g); %s\n",
		g.attempted, g.failed, ratio(float64(g.failed), float64(g.attempted)), golden)
	for _, f := range g.failures {
		fmt.Println("FAIL", f)
	}
	if err := validateMetrics(rep.Metrics); err != nil {
		return err
	}
	if err := checkDeclared(rep.Metrics, traced == 1); err != nil {
		return err
	}
	for _, k := range sortedKeys(rep.Metrics) {
		fmt.Printf("  %-28s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setupTimer builds a workload's instances in timed batches.
type setupTimer struct {
	def   *workloadDef
	seed  int64
	dir   string
	built int
	times []float64 // CPU seconds per set-up, one per batch
}

// batch builds instances until the set-up calls have used
// setupBatchCPU, records the batch's CPU time per set-up, and returns
// the last instance; the others are closed between the timed calls.
func (st *setupTimer) batch() (instance, error) {
	var inst instance
	var used time.Duration
	count := 0
	for used < setupBatchCPU {
		if inst != nil {
			err := inst.close()
			// Drop the closed instance before building the next, so
			// at most one is live at a time.
			inst = nil
			if err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(st.dir, fmt.Sprintf("setup%d", st.built))
		st.built++
		w := startWatch()
		in, err := st.def.setup(st.seed, dir)
		_, cpu := w.stop()
		if err != nil {
			return nil, err
		}
		inst = in
		used += cpu
		count++
	}
	st.times = append(st.times, used.Seconds()/float64(count))
	return inst, nil
}

// spareBatch times a batch whose instances are all closed unused.
func (st *setupTimer) spareBatch() error {
	inst, err := st.batch()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	return inst.close()
}

// checkDeclared verifies that the metrics are exactly the ones
// BENCHMARK.json declares for the mode, with the declared units.
func checkDeclared(ms map[string]metric, perLayer bool) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := decl.EndToEnd
	if perLayer {
		want = decl.PerLayer
	}
	if len(want) != len(ms) {
		return fmt.Errorf("reporting %d metrics, BENCHMARK.json declares %d", len(ms), len(want))
	}
	for _, w := range want {
		if m, ok := ms[w.Name]; !ok || m.Unit != w.Unit {
			return fmt.Errorf("metric %s (%s) declared in BENCHMARK.json is not reported with that unit", w.Name, w.Unit)
		}
	}
	return nil
}

// keepPassing reports whether another pass fits the budget: passes
// start while the elapsed time plus a typical pass stays within it.
func keepPassing(start time.Time, budget time.Duration, durs []float64) bool {
	if len(durs) == 0 {
		return true
	}
	next := time.Duration(median(durs) * float64(time.Second))
	return time.Since(start)+next <= budget
}

// measure runs untraced passes for the budget and reports the
// end-to-end metrics.
func measure(inst instance, g *gate, sp *spans, budget time.Duration, st *setupTimer) (report, error) {
	start := time.Now()
	var walls, cpus, rates, wallRates, live []float64
	var last passStats
	lat := map[string][]float64{}
	for keepPassing(start, budget, walls) {
		heap := startHeapSampler()
		ps, err := inst.pass(sp, g)
		live = append(live, heap.stop()...)
		if err != nil {
			return report{}, err
		}
		walls = append(walls, ps.wall.Seconds())
		cpus = append(cpus, ps.cpu.Seconds())
		rates = append(rates, ps.work/ps.cpu.Seconds())
		wallRates = append(wallRates, ps.work/ps.wall.Seconds())
		for k, v := range ps.latency {
			lat[k] = append(lat[k], v...)
		}
		last = ps
		if err := st.spareBatch(); err != nil {
			return report{}, err
		}
	}
	if len(live) == 0 {
		return report{}, errors.New("no GC cycle ran within a pass")
	}
	for len(st.times) < setupBatches {
		if err := st.spareBatch(); err != nil {
			return report{}, err
		}
	}
	fmt.Printf("set-up: CPU ms per set-up in each of %d batches %v\n", len(st.times), roundAll(scaled(st.times, 1e3)))
	q1, q3 := quartiles(cpus)
	fmt.Printf("passes: %d, wall s %v, cpu s %v (median %.3f, quartiles %.3f..%.3f)\n",
		len(walls), roundAll(walls), roundAll(cpus), median(cpus), q1, q3)
	printWorkloadFigures(last, lat, median(wallRates), median(rates))
	return report{Metrics: map[string]metric{
		"setup_s":          {median(st.times), "s"},
		"pass_cpu_s":       {median(cpus), "s"},
		"work_per_cpu_s":   {median(rates), "1/s"},
		"live_heap_p90_mb": {percentile(live, 90) / (1 << 20), "MB"},
	}}, nil
}

// printWorkloadFigures prints the workload-specific end-to-end figures
// the generic metrics stand for (one pass's simulated counts are
// deterministic, so the last pass speaks for all).
func printWorkloadFigures(ps passStats, lat map[string][]float64, workPerS, workPerCPU float64) {
	if c := ps.counters; c["sim.instructions"] > 0 {
		fmt.Printf("sim_minst_per_s %.4f M warp-instr per host second (%.4f per CPU second)\n", workPerS/1e6, workPerCPU/1e6)
		if s := c["poise.speedup"]; s > 0 {
			fmt.Printf("poise_speedup %.4f (simulated geomean cycles GTO/Poise; model not validated against hardware)\n", s)
		}
	}
	if samples := lat["decide_us"]; len(samples) > 0 {
		fmt.Printf("decide_per_s %.1f (%.1f per CPU second); decide_p50_us %.2f, decide_p99_us %.2f over %d round trips",
			workPerS, workPerCPU, median(samples), percentile(samples, 99), len(samples))
		if p, v, ok := tailPercentile(samples); ok {
			fmt.Printf(" (highest percentile with >=10 beyond: p%g = %.2f us)", p, v)
		}
		fmt.Println()
		if ing := lat["ingest_ms"]; len(ing) > 0 {
			fmt.Printf("ingest_p50_ms %.3f over %d ingests\n", median(ing), len(ing))
		}
	}
}

// measureTraced alternates untraced and traced passes for the budget
// and reports the per-layer metrics of the traced passes: the CPU
// profile folded by module, the benchmark's own spans around the
// public calls, and the counters the result types expose.
func measureTraced(inst instance, g *gate, sp *spans, budget time.Duration, profDir string) (report, error) {
	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return report{}, err
	}
	start := time.Now()
	var plain, traced, plainCPU, tracedCPU, plainRates []float64
	var files []string
	counters := map[string][]float64{}
	lat := map[string][]float64{}
	var gcCycles, allocMB []float64
	for len(traced) == 0 || keepPassing(start, budget, append(append([]float64(nil), plain...), traced...)) {
		// Pairs alternate their order (untraced first, then traced
		// first) so a drift in host speed cancels out of the ratio.
		plainFirst := len(traced)%2 == 0
		for k := 0; k < 2; k++ {
			if (k == 0) == plainFirst {
				ps, err := inst.pass(sp, g)
				if err != nil {
					return report{}, err
				}
				plain = append(plain, ps.wall.Seconds())
				plainCPU = append(plainCPU, ps.cpu.Seconds())
				plainRates = append(plainRates, ps.work/ps.wall.Seconds())
				continue
			}
			f := filepath.Join(profDir, fmt.Sprintf("cpu%d.pprof", len(files)))
			ps, gcs, alloc, err := tracedPass(inst, g, sp, f)
			if err != nil {
				return report{}, err
			}
			files = append(files, f)
			traced = append(traced, ps.wall.Seconds())
			tracedCPU = append(tracedCPU, ps.cpu.Seconds())
			gcCycles = append(gcCycles, gcs)
			allocMB = append(allocMB, alloc)
			for k, v := range ps.counters {
				counters[k] = append(counters[k], v)
			}
			for k, v := range ps.latency {
				lat[k] = append(lat[k], v...)
			}
		}
	}
	n := float64(len(traced))
	prof, err := foldProfiles(files)
	if err != nil {
		return report{}, err
	}
	if prof.Header > 0 && math.Abs(prof.Total-prof.Header) > 0.01*prof.Header+0.01 {
		return report{}, fmt.Errorf("profile samples sum to %.3fs but pprof reports %.3fs", prof.Total, prof.Header)
	}
	fmt.Printf("traced passes: %d (wall s untraced %v, traced %v; cpu s untraced %v, traced %v)\n",
		len(traced), roundAll(plain), roundAll(traced), roundAll(plainCPU), roundAll(tracedCPU))

	ms := map[string]metric{}
	for _, m := range cpuModules {
		ms["cpu."+m+"_s"] = metric{prof.ByModule[m] / n, "s"}
	}
	ms["cpu.total_s"] = metric{prof.Total / n, "s"}
	for _, lm := range layerMetrics {
		ms[lm.name] = metric{median(counters[lm.name]), lm.unit}
	}
	for _, s := range spanMetrics {
		ms[s.metric] = metric{sp.total(s.span) / n, "s"}
	}
	if c := counters["sim.cycles"]; median(c) > 0 {
		ms["sim.host_ns_per_cycle"] = metric{sp.total("sim.run") * 1e9 / (median(c) * n), "ns"}
	} else {
		ms["sim.host_ns_per_cycle"] = metric{0, "ns"}
	}
	ms["serve.decide_p50_us"] = metric{median(lat["decide_us"]), "us"}
	ms["serve.decide_p99_us"] = metric{percentile(lat["decide_us"], 99), "us"}
	ms["serve.ingest_p50_ms"] = metric{median(lat["ingest_ms"]), "ms"}
	ms["gc.cycles"] = metric{median(gcCycles), "count"}
	ms["alloc_mb"] = metric{median(allocMB), "MB"}
	ms["wall.pass_s"] = metric{median(plain), "s"}
	ms["wall.work_per_s"] = metric{median(plainRates), "1/s"}
	ms["trace_overhead"] = metric{median(tracedCPU) / median(plainCPU), "ratio"}
	return report{Metrics: ms}, nil
}

// tracedPass runs one pass under the CPU profiler (written to file)
// with spans on, and returns the GC cycles and MB allocated during it.
func tracedPass(inst instance, g *gate, sp *spans, file string) (passStats, float64, float64, error) {
	out, err := os.Create(file)
	if err != nil {
		return passStats{}, 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return passStats{}, 0, 0, err
	}
	sp.on.Store(true)
	ps, err := inst.pass(sp, g)
	sp.on.Store(false)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return ps, float64(after.NumGC - before.NumGC), float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), err
}

// layerMetric is a per-layer counter a pass reports.
type layerMetric struct{ name, unit string }

// layerMetrics are the per-layer counters every workload reports (0
// where the workload does not exercise the layer).
var layerMetrics = []layerMetric{
	{"sim.cycles", "count"}, {"sim.instructions", "count"},
	{"sm.replays", "count"}, {"sm.replay_per_load", "ratio"},
	{"l1.accesses", "count"}, {"l1.hit_rate", "ratio"}, {"l1.bypasses", "count"},
	{"l2.accesses", "count"}, {"l2.hit_rate", "ratio"}, {"l2.per_kinst", "ratio"},
	{"noc.flits", "count"}, {"dram.accesses", "count"},
	{"poise.tuple_changes", "count"}, {"poise.speedup", "ratio"},
	{"profile.points", "count"}, {"profile.grid_fraction", "ratio"},
	{"prefix.hits", "count"}, {"prefix.misses", "count"}, {"prefix.cycles_saved_ratio", "ratio"},
	{"decider.hit_ratio", "ratio"}, {"serve.retrains", "count"}, {"serve.model_version", "count"},
	{"serve.stale_label_decisions", "count"},
}

// spanMetric turns the benchmark's spans of one name into seconds per
// pass.
type spanMetric struct{ span, metric string }

var spanMetrics = []spanMetric{
	{"sim.run", "sim.run_s"},
	{"traceio.ingest", "traceio.ingest_s"},
	{"profile.sweep", "profile.sweep_s"},
	{"experiments.grid", "experiments.grid_s"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// describeHost records what the figures were measured on and with.
func describeHost() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s perfbench=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit+modified, benchDigest("perfbench"))
}

// benchDigest fingerprints the benchmark's own Go sources in dir, so a
// run names the benchmark code it ran even in a checkout without
// version-control metadata.
func benchDigest(dir string) string {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return "unknown"
	}
	h := sha256.New()
	for _, f := range append(files, filepath.Join(dir, "go.mod")) {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// stopwatch times a section in host wall-clock time and in CPU time
// of the whole process (every goroutine, the collector included). CPU
// time leaves out the time the host takes the CPUs away from this
// machine, which wall-clock time on a shared host does not.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

// stop returns the wall-clock and CPU time since the watch started.
func (w stopwatch) stop() (wall, cpu time.Duration) {
	return time.Since(w.wall), processCPU() - w.cpu
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the live heap after each GC cycle of a pass, by
// polling the runtime's count of bytes the last cycle marked live.
// Only cycles that start after the sampler does count, so objects of
// the set-ups timed between passes never do.
type heapSampler struct {
	stopCh chan struct{}
	done   chan struct{}
	live   []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(sample)
	// A cycle in progress now ends as cycle first-1 and may have marked
	// objects from before the pass.
	first := sample[1].Value.Uint64() + 2
	seen := first - 1
	read := func() {
		metrics.Read(sample)
		if c := sample[1].Value.Uint64(); c >= first && c != seen {
			seen = c
			h.live = append(h.live, float64(sample[0].Value.Uint64()))
		}
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stopCh:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// stop ends sampling and returns the live bytes seen after each cycle.
func (h *heapSampler) stop() []float64 {
	close(h.stopCh)
	<-h.done
	return h.live
}

// spans sums, by name, the time spent in the public calls the
// benchmark makes, while enabled (traced passes only).
type spans struct {
	on     atomic.Bool
	mu     sync.Mutex
	totals map[string]time.Duration
}

// begin starts a span; it returns the zero time when tracing is off.
func (s *spans) begin() time.Time {
	if !s.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

// end adds the time since start to the spans called name.
func (s *spans) end(name string, start time.Time) {
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	s.mu.Lock()
	if s.totals == nil {
		s.totals = map[string]time.Duration{}
	}
	s.totals[name] += d
	s.mu.Unlock()
}

// total returns the summed duration of every span called name.
func (s *spans) total(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals[name].Seconds()
}
