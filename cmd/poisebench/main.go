// Command poisebench regenerates the paper's evaluation: every figure
// and table of §VII, printed as aligned text tables and ASCII solution-
// space plots.
//
// Usage:
//
//	poisebench -run all                # everything (minutes)
//	poisebench -run fig7,fig8,fig9    # the headline comparison
//	poisebench -run tableiii          # Pbest classification
//	poisebench -parallel 4 -run fig7  # bound the worker pool
//
// Experiments fan out across -parallel worker goroutines (default:
// GOMAXPROCS); every table is bit-identical at any worker count, and
// -seed reseeds the whole suite reproducibly. Profiles are cached
// under -cache; delete the directory to force fresh sweeps.
//
// -trace ingests recorded workloads (poisetrace containers or
// simplified Accel-Sim kernel traces; a file or directory) and
// appends them to the evaluation set, so profile sweeps and the
// figure/table experiments run over real traces unchanged.
//
// Sharded campaigns (-emit-plan / -shard i/N / -merge-shards) cover
// both plan kinds. With -run all they split the profile sweeps; with
// -run naming one grid-backed experiment they split that experiment's
// workload x scheme cell grid. Each shard is a static lease of the
// fleet campaign -serve would run, written into -cache under a name
// derived from the plan:
//
//	poisebench -run fig7 -cache c -emit-plan cells.jsonl   # document/ship
//	poisebench -run fig7 -cache c -shard 0/2               # worker 0
//	poisebench -run fig7 -cache c -shard 1/2               # worker 1
//	poisebench -run fig7 -cache c -merge-shards            # coordinator
//	poisebench -run fig7 -cache c                          # loads merged cells
//
// Merging any shard split is reflect.DeepEqual-identical to the
// in-process grid, so the final tables are byte-identical to an
// unsharded run with the cache disabled (CI asserts exactly that).
//
// The fleet service mode serves the same campaigns over HTTP instead
// of files — one coordinator (-serve), any number of long-lived
// workers (-worker), crash recovery via lease expiry, work stealing
// for stragglers, and merged results landing directly in -cache:
//
//	poisebench -run fig7 -cache c -serve :9444     # coordinator
//	poisebench -worker http://host:9444 -cache c   # terminal 2..N
//	poisebench -run fig7 -cache c                  # loads merged cells
//
// -prune switches every profile sweep to adaptive coarse-to-fine
// refinement: a fraction of each {N,p} grid is simulated while the
// Static-Best, SWL and scored tuples — all any experiment consumes —
// match the exhaustive sweep. Combined with the three sharding flags
// and -run all, the sweep campaign proceeds in refinement rounds
// (emit, shard, merge, repeat until "refinement complete"); pruned
// profiles cache under their own tag, so pruned and exhaustive
// campaigns never mix.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"poise/internal/experiments"
	"poise/internal/fleet"
	"poise/internal/gridplan"
	"poise/internal/profiling"
	"poise/internal/sim"
	"poise/internal/traceio"
	"poise/internal/workloads"
)

var runners = []struct {
	name string
	desc string
	run  func(*experiments.Harness) error
}{
	{"tableiii", "Table IIIa: Pbest per workload (64x L1 speedup)", runTableIII},
	{"fig2", "Fig. 2: {N,p} solution space of an ii kernel; CCWS/PCAL/MAX", runFig2},
	{"fig4", "Fig. 4: L1 hit-rate split and reuse distance", runFig4},
	{"fig5", "Fig. 5: scoring performance peaks (Eq. 12)", runFig5},
	{"tableii", "Table II: trained feature weights + offline error", runTableII},
	{"fig7", "Fig. 7-10, 14: performance, hit rate, AML, displacement, energy", runPerf},
	{"fig11", "Fig. 11: local-search stride sensitivity", runFig11},
	{"fig12", "Fig. 12: L1 cache-size sensitivity", runFig12},
	{"fig13", "Fig. 13: feature-ablation sensitivity", runFig13},
	{"fig15", "Fig. 15: APCM and random-restart comparison", runFig15},
	{"fig16", "Fig. 16: compute-intensive workloads", runFig16},
	{"fig17", "Fig. 17: bfs case study", runFig17},
	{"cost", "Sec. VII-I: hardware cost accounting", runCost},
}

func main() {
	var (
		run      = flag.String("run", "all", "comma-separated experiment list or 'all' (see -listexp)")
		sms      = flag.Int("sms", 8, "number of SMs (scaled memory system)")
		size     = flag.String("size", "small", "workload size: small | medium | large")
		cacheDir = flag.String("cache", ".poise-cache", "profile cache directory ('' disables)")
		seeds    = flag.Int("seeds", 3, "random-restart seeds (paper uses 20)")
		prune    = flag.Bool("prune", false, "adaptive coarse-to-fine profile sweeps: simulate a fraction of each {N,p} grid while selecting the same Static-Best/SWL/scored tuples (with -emit-plan/-shard/-merge-shards and -run all, drives the sweep campaign in refinement rounds)")
		snapDir  = flag.String("snapshot-dir", "", "kernel-boundary snapshot directory: experiment-grid cells whose schemes share a tuple prefix resume at the first divergent kernel instead of re-simulating it (warm start; results are bit-identical either way, and a stats line reports the simulated cycles saved; '' = off)")
		parallel = flag.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS, 1 = sequential); results are identical at any setting")
		seed     = flag.Int64("seed", 0, "experiment seed (perturbs workload jitter and random-restart; 0 = canonical)")
		listExp  = flag.Bool("listexp", false, "list experiments and exit")
		tracePth = flag.String("trace", "", "ingest trace workloads (a .ptrace/.ptrace.gz/.trace file or a directory) into the evaluation set")

		// Sharded campaign flow. With -run all (the default) the three
		// flags drive the profile-sweep plan; with -run naming one
		// grid-backed experiment (fig7, fig11, fig12, fig13, fig15,
		// fig16, tableiii) they drive that experiment's workload x
		// scheme cell grid instead: -emit-plan documents/ships the plan;
		// -shard i/N runs this process's static lease and writes its
		// lease file into -cache; -merge-shards merges the plan's lease
		// files into the cache, after which normal runs load them
		// instead of simulating.
		emitPlan = flag.String("emit-plan", "", "write the profile sweep plan (-run all) or one experiment's cell grid plan (-run <exp>) as JSONL to this file and exit")
		shardStr = flag.String("shard", "", "run shard i/N of the profile sweeps or of -run's experiment grid as a static lease, write its lease file into -cache, and exit (format \"i/N\")")
		mergeSh  = flag.Bool("merge-shards", false, "merge the plan's lease files in -cache into full cached profiles (-run all) or merged experiment cells (-run <exp>) and exit")

		// Fleet coordinator/worker service (package fleet): the same
		// campaigns over HTTP, with crash recovery and work stealing.
		serveAddr = flag.String("serve", "", "run the fleet coordinator on this listen address, serving -run's campaign (profile sweeps, -prune refinement rounds, or one experiment grid) and merging results into -cache")
		workerURL = flag.String("worker", "", "run a fleet worker pulling task leases from the coordinator at this base URL")
		leaseN    = flag.Int("lease-tasks", 0, "-serve: tasks per lease batch (0 = default)")
		leaseTTL  = flag.Duration("lease-ttl", 0, "-serve: lease expiry deadline, renewed on each completed task (0 = default)")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(profiling.Flags{CPUProfile: *cpuProf, MemProfile: *memProf})
	if err != nil {
		fmt.Fprintln(os.Stderr, "poisebench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "poisebench:", err)
		}
	}()

	if *listExp {
		for _, r := range runners {
			fmt.Printf("%-9s %s\n", r.name, r.desc)
		}
		return
	}

	var extra []*sim.Workload
	if *tracePth != "" {
		ws, err := traceio.LoadWorkloads(*tracePth)
		if err != nil {
			fmt.Fprintln(os.Stderr, "poisebench:", err)
			os.Exit(1)
		}
		extra = ws
		for _, w := range ws {
			fmt.Printf("ingested trace workload %s (%d kernels)\n", w.Name, len(w.Kernels))
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := experiments.Options{
		SMs:            *sms,
		Size:           parseSize(*size),
		CacheDir:       *cacheDir,
		RandomSeeds:    *seeds,
		Workers:        *parallel,
		Seed:           *seed,
		Ctx:            ctx,
		ExtraWorkloads: extra,
		Prune:          *prune,
		SnapshotDir:    *snapDir,
	}
	h := experiments.NewHarness(opt)

	if *serveAddr != "" || *workerURL != "" {
		err := runFleetMode(ctx, h, benchFleetFlags{
			serve: *serveAddr, worker: *workerURL,
			leaseTasks: *leaseN, leaseTTL: *leaseTTL,
			run: *run, cacheDir: *cacheDir,
			emitPlan: *emitPlan, shard: *shardStr, merge: *mergeSh,
			prune: *prune,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "poisebench:", err)
			os.Exit(1)
		}
		return
	}

	if *emitPlan != "" || *shardStr != "" || *mergeSh {
		if err := runShardMode(h, *run, *emitPlan, *shardStr, *mergeSh); err != nil {
			fmt.Fprintln(os.Stderr, "poisebench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("running on %d workers (seed %d)\n", h.Workers(), *seed)

	want := map[string]bool{}
	all := *run == "all"
	for _, n := range strings.Split(*run, ",") {
		want[strings.TrimSpace(strings.ToLower(n))] = true
	}
	ran := 0
	for _, r := range runners {
		if !all && !want[r.name] {
			continue
		}
		fmt.Printf("\n===== %s =====\n", r.desc)
		start := time.Now()
		if err := r.run(h); err != nil {
			fmt.Fprintf(os.Stderr, "poisebench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s in %v]\n", r.name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "poisebench: no experiment matched %q (see -listexp)\n", *run)
		os.Exit(1)
	}
	if pc := h.PrefixCache(); pc != nil {
		// CI's warm-start step asserts cycles-saved > 0 on this line.
		fmt.Printf("\nprefix cache: %d hits, %d misses, %d kernels skipped, %d simulated cycles saved\n",
			pc.Hits.Load(), pc.Misses.Load(), pc.KernelsSkipped.Load(), pc.CyclesSaved.Load())
	}
}

func runTableIII(h *experiments.Harness) error {
	rows, err := h.TableIII()
	if err != nil {
		return err
	}
	t := &experiments.Table{Header: []string{"workload", "kernels", "Pbest", "memory-sensitive"}}
	for _, r := range rows {
		t.Add(r.Workload, fmt.Sprint(r.Kernels), fmt.Sprintf("%.2fx", r.Pbest),
			fmt.Sprint(r.MemorySensitive))
	}
	t.Render(os.Stdout)
	return nil
}

func runFig2(h *experiments.Harness) error {
	sp, err := h.Fig2()
	if err != nil {
		return err
	}
	experiments.RenderSpace(os.Stdout, sp.Profile, map[string][2]int{
		"C": {sp.CCWS.N, sp.CCWS.P},
		"L": {sp.PCAL.N, sp.PCAL.P},
		"M": {sp.Max.N, sp.Max.P},
	})
	fmt.Printf("CCWS  (%2d,%2d) %.3fx\nPCAL  (%2d,%2d) %.3fx\nMAX   (%2d,%2d) %.3fx\n",
		sp.CCWS.N, sp.CCWS.P, sp.CCWS.Speedup,
		sp.PCAL.N, sp.PCAL.P, sp.PCAL.Speedup,
		sp.Max.N, sp.Max.P, sp.Max.Speedup)
	t := &experiments.Table{Header: []string{"N", "speedup p=N", "speedup p=1"}}
	p1 := map[int]float64{}
	for i, n := range sp.P1N {
		p1[n] = sp.P1[i]
	}
	for i, n := range sp.DiagonalN {
		cell := "-"
		if v, ok := p1[n]; ok {
			cell = fmt.Sprintf("%.3f", v)
		}
		t.Add(fmt.Sprint(n), fmt.Sprintf("%.3f", sp.Diagonal[i]), cell)
	}
	t.Render(os.Stdout)
	return nil
}

func runFig4(h *experiments.Harness) error {
	rows, err := h.Fig4()
	if err != nil {
		return err
	}
	t := &experiments.Table{Header: []string{"workload", "hp", "hnp", "ho", "intra%", "inter%", "R"}}
	for _, r := range rows {
		t.Add(r.Workload,
			fmt.Sprintf("%.3f", r.Hp), fmt.Sprintf("%.3f", r.Hnp), fmt.Sprintf("%.3f", r.Ho),
			fmt.Sprintf("%.1f", r.IntraPct), fmt.Sprintf("%.1f", r.InterPct),
			fmt.Sprintf("%.0f", r.ReuseDist))
	}
	t.Render(os.Stdout)
	return nil
}

func runFig5(h *experiments.Harness) error {
	rows, err := h.Fig5()
	if err != nil {
		return err
	}
	t := &experiments.Table{Header: []string{"kernel", "max-perf", "speedup", "max-score", "speedup@score"}}
	for _, r := range rows {
		t.Add(r.Kernel,
			fmt.Sprintf("(%d,%d)", r.MaxPerf.N, r.MaxPerf.P),
			fmt.Sprintf("%.3fx", r.MaxPerf.Speedup),
			fmt.Sprintf("(%d,%d)", r.MaxScore.N, r.MaxScore.P),
			fmt.Sprintf("%.3fx", r.PerfAtMaxScore))
	}
	t.Render(os.Stdout)
	return nil
}

func runTableII(h *experiments.Harness) error {
	res, err := h.TableII()
	if err != nil {
		return err
	}
	experiments.RenderWeights(os.Stdout, res.Weights)
	fmt.Printf("admitted %d kernels (rejected: %d speedup, %d cycles, %d hitrate)\n",
		res.Admitted, res.RejSpeedup, res.RejCycles, res.RejHitRate)
	fmt.Printf("offline prediction error on unseen kernels: N %.1f%% (paper: 16%%), p %.1f%% (paper: 26%%)\n",
		100*res.ErrN, 100*res.ErrP)
	return nil
}

func runPerf(h *experiments.Harness) error {
	sum, err := h.Performance()
	if err != nil {
		return err
	}
	t := &experiments.Table{Header: append([]string{"workload"}, experiments.SchemeNames...)}
	for _, r := range sum.Rows {
		t.AddF(r.Workload, 3, r.Speedup...)
	}
	t.AddF("H-Mean", 3, sum.HMeanSpeedup...)
	fmt.Println("Fig. 7 — IPC normalised to GTO:")
	t.Render(os.Stdout)

	t = &experiments.Table{Header: append([]string{"workload"}, experiments.SchemeNames...)}
	for _, r := range sum.Rows {
		row := make([]float64, len(r.HitRate))
		for i, v := range r.HitRate {
			row[i] = 100 * v
		}
		t.AddF(r.Workload, 1, row...)
	}
	means := make([]float64, len(sum.AMeanHitRate))
	for i, v := range sum.AMeanHitRate {
		means[i] = 100 * v
	}
	t.AddF("A-Mean", 1, means...)
	fmt.Println("\nFig. 8 — L1 hit rate (%):")
	t.Render(os.Stdout)

	t = &experiments.Table{Header: append([]string{"workload"}, experiments.SchemeNames...)}
	for _, r := range sum.Rows {
		t.AddF(r.Workload, 3, r.AML...)
	}
	t.AddF("A-Mean", 3, sum.AMeanAML...)
	fmt.Println("\nFig. 9 — AML normalised to GTO:")
	t.Render(os.Stdout)

	t = &experiments.Table{Header: []string{"workload", "N-axis", "p-axis", "euclidean"}}
	for _, r := range sum.Rows {
		t.AddF(r.Workload, 2, r.DispN, r.DispP, r.DispE)
	}
	t.AddF("A-Mean", 2, sum.MeanDispN, sum.MeanDispP, sum.MeanDispE)
	fmt.Println("\nFig. 10 — displacement between predicted and converged tuples:")
	t.Render(os.Stdout)

	t = &experiments.Table{Header: []string{"workload", "GTO mJ", "Poise mJ", "Poise/GTO"}}
	for _, r := range sum.Rows {
		t.AddF(r.Workload, 3, r.EnergyGTO, r.EnergyPoise, ratioOr0(r.EnergyPoise, r.EnergyGTO))
	}
	fmt.Println("\nFig. 14 — energy consumption:")
	t.Render(os.Stdout)
	fmt.Printf("mean Poise/GTO energy: %.3f (paper: 0.484)\n", sum.MeanEnergyRatio)
	return nil
}

func runFig11(h *experiments.Harness) error {
	res, err := h.Fig11()
	if err != nil {
		return err
	}
	hdr := []string{"workload"}
	for _, s := range res.Strides {
		hdr = append(hdr, fmt.Sprintf("(%d,%d)", s[0], s[1]))
	}
	t := &experiments.Table{Header: hdr}
	for i, w := range res.Workloads {
		t.AddF(w, 3, res.PerWorkload[i]...)
	}
	t.AddF("H-Mean", 3, res.HMean...)
	t.Render(os.Stdout)
	return nil
}

func runFig12(h *experiments.Harness) error {
	res, err := h.Fig12()
	if err != nil {
		return err
	}
	hdr := []string{"workload"}
	for _, kb := range res.SizesKB {
		hdr = append(hdr, fmt.Sprintf("Poise+%dKB", kb))
	}
	t := &experiments.Table{Header: hdr}
	for i, w := range res.Workloads {
		t.AddF(w, 3, res.Speedup[i]...)
	}
	t.AddF("H-Mean", 3, res.HMean...)
	t.Render(os.Stdout)
	return nil
}

func runFig13(h *experiments.Harness) error {
	res, err := h.Fig13()
	if err != nil {
		return err
	}
	hdr := []string{"workload"}
	for _, d := range res.Dropped {
		hdr = append(hdr, fmt.Sprintf("-x%d", d+1))
	}
	t := &experiments.Table{Header: hdr}
	for i, w := range res.Workloads {
		t.AddF(w, 3, res.Relative[i]...)
	}
	t.AddF("H-Mean", 3, res.HMean...)
	t.Render(os.Stdout)
	return nil
}

func runFig15(h *experiments.Harness) error {
	res, err := h.Fig15()
	if err != nil {
		return err
	}
	t := &experiments.Table{Header: []string{"workload", "APCM", "Random-restart", "Poise"}}
	for i, w := range res.Workloads {
		t.AddF(w, 3, res.APCM[i], res.Random[i], res.Poise[i])
	}
	t.AddF("H-Mean", 3, res.HMean[0], res.HMean[1], res.HMean[2])
	t.Render(os.Stdout)
	return nil
}

func runFig16(h *experiments.Harness) error {
	res, err := h.Fig16()
	if err != nil {
		return err
	}
	t := &experiments.Table{Header: []string{"workload", "Poise", "Pbest"}}
	for i, w := range res.Workloads {
		t.AddF(w, 3, res.Poise[i], res.Pbest[i])
	}
	t.Render(os.Stdout)
	fmt.Printf("H-Mean Poise vs GTO: %.3f (paper: 0.984, i.e. 1.6%% overhead)\n", res.HMeanPoise)
	return nil
}

func runFig17(h *experiments.Harness) error {
	res, err := h.Fig17()
	if err != nil {
		return err
	}
	fmt.Println("Fig. 17a — static profile of bfs:")
	experiments.RenderSpace(os.Stdout, res.Profile, map[string][2]int{
		"M": {res.Profile.Best().N, res.Profile.Best().P},
	})
	fmt.Println("\nFig. 17b — Poise runtime tuples on bfs:")
	experiments.RenderTuples(os.Stdout, res.Predicted, res.Converged, res.Profile.MaxN)
	fmt.Printf("%d predictions, %d converged tuples\n", len(res.Predicted), len(res.Converged))
	return nil
}

func runCost(h *experiments.Harness) error {
	c := h.Cost()
	fmt.Printf("performance counters: %d B/SM\n", c.CounterBytes)
	fmt.Printf("HIE FSM state:        %d B/SM\n", c.FSMBytes)
	fmt.Printf("vital bits:           %d b/SM\n", c.VitalBits)
	fmt.Printf("pollute bits:         %d b/SM\n", c.PolluteBits)
	fmt.Printf("total per SM:         %.2f B (paper: 40.75 B)\n", c.TotalPerSM)
	fmt.Printf("total chip (%d SMs):  %.0f B (paper: 1304 B at 32 SMs)\n", c.SMs, c.TotalChipBytes)
	fmt.Printf("weights via constant memory: %d B\n", c.WeightBytes)
	return nil
}

// gridForExp maps the grid-backed experiment names to their
// experiment grid (fig7 covers Figs. 7-10 and 14, which share one
// grid).
var gridForExp = map[string]string{
	"fig7":     "scheme",
	"fig11":    "stride",
	"fig12":    "cachesize",
	"fig13":    "ablation",
	"fig15":    "alternatives",
	"fig16":    "compute",
	"tableiii": "pbest",
}

func gridBackedNames() string {
	var names []string
	for _, r := range runners {
		if _, ok := gridForExp[r.name]; ok {
			names = append(names, r.name)
		}
	}
	return strings.Join(names, ", ")
}

// runShardMode executes the sharded-campaign subcommands. Exactly one
// of the three is active per invocation (emit, then shard workers,
// then merge — each typically a separate process); -run selects the
// profile-sweep campaign ("all", staged refinement rounds under
// -prune) or one experiment's cell grid. A shard is a static lease of
// the fleet campaign -serve would run: its results land in -cache as a
// lease file named after the plan, and the merge feeds every lease of
// the current plan through the coordinator's completion path before
// saving into the cache.
func runShardMode(h *experiments.Harness, run, emitPlan, shard string, merge bool) error {
	run = strings.TrimSpace(strings.ToLower(run))
	grid := ""
	if run != "all" {
		if strings.Contains(run, ",") {
			return fmt.Errorf("-emit-plan/-shard/-merge-shards take a single experiment in -run, got %q", run)
		}
		var ok bool
		if grid, ok = gridForExp[run]; !ok {
			return fmt.Errorf("experiment %q is not grid-backed; use -run all for profile sweeps, or one of: %s",
				run, gridBackedNames())
		}
	}
	if h.Opt.CacheDir == "" && (emitPlan == "" || h.Opt.Prune && grid == "") {
		return fmt.Errorf("-shard, -merge-shards and -prune -emit-plan need -cache (lease files and refinement rounds live there)")
	}
	camp, save, err := fleet.HarnessCampaign(h, grid)
	if err != nil {
		return err
	}
	if emitPlan != "" {
		n, done, err := fleet.EmitPlan(camp, emitPlan)
		if err != nil {
			return err
		}
		if done {
			fmt.Println("refinement complete: merged profiles are in the cache")
		} else {
			fmt.Printf("plan %s: %d tasks\n", emitPlan, n)
		}
		return nil
	}
	c, err := fleet.NewCoordinator(camp, fleet.Options{})
	if err != nil {
		return err
	}
	if c.Plan() == "" {
		fmt.Println("refinement complete: merged profiles are in the cache")
		return nil
	}
	if shard != "" {
		i, n, err := gridplan.ParseShard(shard)
		if err != nil {
			return err
		}
		path := fleet.LeaseFile(h.Opt.CacheDir, c.Plan(), i, n)
		ran, err := c.RunLease(fleet.HarnessExecutors(h), i, n, path)
		if err != nil {
			return err
		}
		fmt.Printf("shard %s: %d tasks -> %s\n", shard, ran, path)
		return nil
	}
	files, err := fleet.LeaseFiles(h.Opt.CacheDir, c.Plan())
	if err != nil {
		return err
	}
	res, done, err := c.MergeLeases(files)
	if err != nil {
		return err
	}
	if !done {
		fmt.Println("round merged; refinement continues (emit/shard/merge again)")
		return nil
	}
	msg, err := save(res)
	if err != nil {
		return err
	}
	fmt.Println(msg)
	if h.Opt.Prune && grid == "" {
		fmt.Println("refinement complete: merged profiles into the cache")
	}
	return nil
}

func ratioOr0(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}

func parseSize(s string) workloads.Size {
	switch strings.ToLower(s) {
	case "small":
		return workloads.Small
	case "medium":
		return workloads.Medium
	case "large":
		return workloads.Large
	default:
		fmt.Fprintf(os.Stderr, "poisebench: unknown size %q\n", s)
		os.Exit(1)
		return workloads.Small
	}
}
