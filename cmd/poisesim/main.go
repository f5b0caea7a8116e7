// Command poisesim runs one or more workloads on the simulated GPU
// under a chosen warp-scheduling policy and prints the headline
// metrics.
//
// Usage:
//
//	poisesim -workload ii -policy fixed -n 8 -p 2 -sms 8 -size small
//	poisesim -workload ii,bfs,syr2k -parallel 3   # fan out across cores
//
// Policies: gto (baseline greedy-then-oldest, maximum warps) and
// fixed (pin the warp-tuple to -n/-p). The richer policies (swl, pcal,
// poise, ...) are exercised via cmd/poisebench, which also feeds them
// the profiles and trained models they need.
//
// A comma-separated -workload list fans the runs out across -parallel
// worker goroutines (0 = GOMAXPROCS); each run simulates on its own
// GPU, so results are identical at any worker count and print in the
// order given. -seed reseeds the workload generator reproducibly.
//
// Trace ingestion (package traceio):
//
//	poisesim -record traces -workload ii        # capture ii to traces/ii.ptrace.gz
//	poisesim -trace traces/ii.ptrace.gz -workload ii   # replay: identical metrics
//	poisesim -trace kernel.trace -list          # ingest + characterise
//
// -trace loads recorded workloads (poisetrace containers or simplified
// Accel-Sim kernel traces; a file or a directory of files) into the
// catalogue, shadowing same-named synthetic workloads so record/replay
// comparisons are a two-command affair. -list prints each workload's
// characterised locality signature (In, reuse distance R, per-warp
// footprint, intra/inter reuse split).
//
// Sharded {N, p} profile sweeps (package gridplan) — each step can run
// in a different process or on a different machine:
//
//	poisesim -workload ii -emit-plan plan.jsonl
//	poisesim -plan plan.jsonl -shard 0/2 -shard-out s0.jsonl
//	poisesim -plan plan.jsonl -shard 1/2 -shard-out s1.jsonl
//	poisesim -plan plan.jsonl -merge-shards s0.jsonl,s1.jsonl -profile-out profs
//	poisesim -workload ii -sweep -profile-out reference   # unsharded reference
//
// Each -shard is a static lease of the fleet campaign -serve would run
// (package fleet): its results are written in the coordinator's
// completion format, and -merge-shards feeds them through the
// coordinator's completion path, so a missing lease or one of another
// plan fails the merge. Merging any split is byte-identical to the
// in-process sweep (-sweep), which CI asserts with a directory diff.
//
// The same flags also execute experiment-grid cell plans (workload x
// scheme grids emitted by `poisebench -run fig7 -emit-plan ...`): the
// plan file's header selects the pipeline, -shard runs the slice of
// cells, and -merge-shards writes the merged cells into -profile-out,
// which poisebench loads as its -cache:
//
//	poisebench -run fig16 -emit-plan cells.jsonl -cache c
//	poisesim -plan cells.jsonl -shard 0/2 -shard-out c0.jsonl
//	poisesim -plan cells.jsonl -shard 1/2 -shard-out c1.jsonl
//	poisesim -plan cells.jsonl -merge-shards c0.jsonl,c1.jsonl -profile-out c
//	poisebench -run fig16 -cache c      # assembles the figure from the cells
//
// Worker flags must reproduce the coordinator's configuration (-sms,
// -size, -seed, -stepn/-stepp); the plan's configuration tag and
// workload digests are verified first, so mismatches fail fast.
//
// The fleet service mode (package fleet) replaces the file round-trip
// with a live coordinator and long-lived workers over HTTP:
//
//	poisesim -serve :9444 -plan plan.jsonl -profile-out profs   # coordinator
//	poisesim -worker http://host:9444                           # any number
//
// Workers may join late, crash mid-lease (expiry requeues their tasks)
// or run slow (idle workers steal queued tasks from loaded ones); the
// merged output is byte-identical to the single-process run in every
// case. `-serve -prune` drives the whole staged refinement loop as one
// campaign, publishing each round's plan as the next generation.
//
// Adaptive sweep pruning (-prune) replaces the exhaustive grid with a
// coarse pass plus score-ranked neighbourhood refinement, simulating a
// fraction of the points while selecting the same Static-Best, SWL and
// scored tuples. In-process:
//
//	poisesim -workload ii -prune -sweep -profile-out pruned
//
// Staged, one plan file per refinement round — each round shards with
// the unchanged -shard workers, and the loop ends when -emit-plan
// reports "refinement complete" and assembles the profiles:
//
//	poisesim -workload ii -prune -cache rounds -emit-plan r.jsonl -profile-out pruned
//	poisesim -plan r.jsonl -shard 0/2 -shard-out r0.jsonl
//	poisesim -plan r.jsonl -shard 1/2 -shard-out r1.jsonl
//	poisesim -prune -plan r.jsonl -merge-shards r0.jsonl,r1.jsonl -cache rounds
//	...repeat...
//
// -best prints the static policy table derived from a profile
// directory; pruned and exhaustive campaigns print identical tables
// (CI byte-diffs them).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"poise"

	"poise/internal/config"
	"poise/internal/profiling"
	"poise/internal/runner"
	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/traceio"
	"poise/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "ii", "comma-separated workload names (see -list)")
		policy   = flag.String("policy", "gto", "policy: gto | fixed | poise | apcm | ccws | random-restart")
		n        = flag.Int("n", 0, "fixed policy: vital warps N (0 = max)")
		p        = flag.Int("p", 0, "fixed policy: polluting warps p (0 = N)")
		sms      = flag.Int("sms", 8, "number of SMs (scaled memory system)")
		size     = flag.String("size", "small", "workload size: small | medium | large")
		list     = flag.Bool("list", false, "list workloads with their characterised signature and exit")
		l1x      = flag.Int("l1x", 1, "multiply L1 capacity (Pbest probes use 64)")
		parallel = flag.Int("parallel", 0, "worker goroutines for multi-workload runs (0 = GOMAXPROCS)")
		seed     = flag.Int64("seed", 0, "workload seed (perturbs iteration jitter; 0 = canonical)")
		tracePth = flag.String("trace", "", "load trace workloads (a .ptrace/.ptrace.gz/.trace file or a directory) into the catalogue")
		record   = flag.String("record", "", "record each selected workload to this directory as <name>.ptrace.gz before running")

		// Sharded {N,p} sweep flow (package gridplan): emit a plan, run
		// shards of it in separate processes, merge the partials.
		emitPlan = flag.String("emit-plan", "", "write the selected workloads' sweep plan as JSONL to this file and exit")
		planPth  = flag.String("plan", "", "sweep plan file (from -emit-plan) for -shard / -merge-shards")
		shardStr = flag.String("shard", "", "run static lease i/N of -plan and write its results to -shard-out (format \"i/N\")")
		shardOut = flag.String("shard-out", "", "lease file written by -shard")
		mergeStr = flag.String("merge-shards", "", "comma-separated lease files from -shard to merge into -profile-out (needs -plan; with -prune, into the -cache rounds)")
		profDir  = flag.String("profile-out", "", "profile cache directory -merge-shards and -sweep write to")
		sweepRun = flag.Bool("sweep", false, "run an in-process sweep of the selected workloads and save profiles under -profile-out (the unsharded reference)")
		pruneRun = flag.Bool("prune", false, "adaptive coarse-to-fine sweep pruning: with -sweep run pruned sweeps in-process; with -emit-plan/-merge-shards drive the staged per-round plan flow (rounds cached in -cache)")
		bestRun  = flag.Bool("best", false, "print the static policy table (Static-Best/SWL/scored tuples) derived from the profiles in -profile-out and exit")
		stepN    = flag.Int("stepn", 2, "sweep grid N step for the plan/sweep modes")
		stepP    = flag.Int("stepp", 2, "sweep grid p step for the plan/sweep modes")
		cacheDir = flag.String("cache", "", "profile cache directory for cell-plan shards ('' = none; share one across workers and with the poisebench coordinator so profile-hungry grids sweep once)")
		seeds    = flag.Int("seeds", 3, "random-restart trials for alternatives-grid (fig15) cell plans; must match the coordinator's -seeds")

		// Fleet coordinator/worker service (package fleet): serve a plan
		// over HTTP, pull leases from long-lived workers, merge streamed
		// results; survives worker crashes (lease expiry) and rebalances
		// loaded workers (stealing) with byte-identical merged output.
		serveAddr = flag.String("serve", "", "run the fleet coordinator on this listen address, serving -plan (or the -prune refinement loop) to -worker processes, and save merged output under -profile-out")
		workerURL = flag.String("worker", "", "run a fleet worker pulling task leases from the coordinator at this base URL (e.g. http://host:9444)")
		leaseN    = flag.Int("lease-tasks", 0, "-serve: tasks per lease batch (0 = default)")
		leaseTTL  = flag.Duration("lease-ttl", 0, "-serve: lease expiry deadline, renewed on each completed task (0 = default)")
		dieAfter  = flag.Int("die-after", 0, "-worker: exit mid-lease after completing this many tasks (chaos/CI hook; with -snapshot-dir the death is checkpointed so another worker resumes it; 0 = never)")
		taskDelay = flag.Duration("task-delay", 0, "-worker: sleep this long before each task (chaos/CI hook to provoke stealing)")

		// Mid-run snapshots (package snap): checkpoint preempted runs
		// (SIGTERM, -ckpt-at-cycle, checkpointed -die-after) so a later
		// process resumes them bit-identically instead of restarting.
		snapDir = flag.String("snapshot-dir", "", "snapshot directory: preempted runs/sweep tasks checkpoint here and resume from here; in worker and shard modes it is probed automatically, so any process pointed at the same directory continues the work ('' = off)")
		resumeR = flag.Bool("resume", false, "resume workload runs from checkpoints in -snapshot-dir (writes still require only -snapshot-dir; results are bit-identical to an uninterrupted run)")
		ckptAt  = flag.Int64("ckpt-at-cycle", 0, "deterministically preempt + checkpoint each in-flight run at this simulated cycle (CI/chaos hook; needs -snapshot-dir)")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(profiling.Flags{CPUProfile: *cpuProf, MemProfile: *memProf})
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "poisesim:", err)
		}
	}()

	workloadSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workload" {
			workloadSet = true
		}
	})

	cat := workloads.NewCatalogueSeeded(parseSize(*size), *seed)
	var extra []*sim.Workload
	if *tracePth != "" {
		ws, err := traceio.LoadWorkloads(*tracePth)
		if err != nil {
			fatal(err)
		}
		extra = ws
		for _, w := range ws {
			cat.Put(w)
		}
		if !workloadSet && len(ws) > 0 {
			// Bare -trace runs default to the ingested workloads; an
			// explicit -workload (even "ii") always wins.
			names := make([]string, len(ws))
			for i, w := range ws {
				names[i] = w.Name
			}
			*workload = strings.Join(names, ",")
		}
	}
	if *list {
		listSignatures(cat)
		return
	}
	var names []string
	for _, name := range strings.Split(*workload, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("no workloads given (see -list for names)"))
	}
	ws := make([]*sim.Workload, len(names))
	for i, name := range names {
		w, err := cat.Get(name)
		if err != nil {
			fatal(err)
		}
		ws[i] = w
	}

	if *record != "" {
		if err := os.MkdirAll(*record, 0o755); err != nil {
			fatal(err)
		}
		for _, w := range ws {
			tr, err := traceio.Record(w)
			if err != nil {
				fatal(err)
			}
			path := filepath.Join(*record, w.Name+".ptrace.gz")
			if err := traceio.WriteFile(path, tr); err != nil {
				fatal(err)
			}
			fmt.Printf("recorded %s (%d kernels) -> %s\n", w.Name, len(tr.Kernels), path)
		}
	}

	cfg := config.Default().Scale(*sms)
	if *l1x > 1 {
		cfg.L1.SizeBytes *= *l1x
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -snapshot-dir arms the preemption path: SIGTERM (or the
	// deterministic -ckpt-at-cycle hook) interrupts in-flight
	// simulations at a safe point and checkpoints them to the store, so
	// a later process — this machine or another pointed at the same
	// directory — resumes bit-identically instead of restarting.
	var (
		ckpts *snap.Store
		ictl  *sim.InterruptCtl
	)
	if *snapDir != "" {
		st, err := snap.NewStore(*snapDir)
		if err != nil {
			fatal(err)
		}
		ckpts = st
		ictl = &sim.InterruptCtl{AtCycle: *ckptAt}
		go func() { <-ctx.Done(); ictl.Trigger() }()
	} else if *ckptAt > 0 {
		fatal(fmt.Errorf("-ckpt-at-cycle needs -snapshot-dir for the checkpoint"))
	} else if *resumeR {
		fatal(fmt.Errorf("-resume needs -snapshot-dir to resume from"))
	}

	if *serveAddr != "" || *workerURL != "" {
		runFleetMode(sweepModeArgs{
			cfg: cfg, cat: cat, selected: ws, ctx: ctx,
			planPath: *planPth, profileDir: *profDir, prune: *pruneRun,
			sms: *sms, size: parseSize(*size),
			cacheDir: *cacheDir, seeds: *seeds, extra: extra,
			stepN: *stepN, stepP: *stepP, workers: *parallel, seed: *seed,
			snapDir: *snapDir, ckpts: ckpts, ictl: ictl,
		}, fleetFlags{
			serve: *serveAddr, worker: *workerURL,
			leaseTasks: *leaseN, leaseTTL: *leaseTTL,
			dieAfter: *dieAfter, taskDelay: *taskDelay,
			planPath: *planPth, emitPlan: *emitPlan,
			shard: *shardStr, merge: *mergeStr,
			profileDir: *profDir, sweep: *sweepRun,
			best: *bestRun, prune: *pruneRun,
		})
		return
	}

	if *emitPlan != "" || *shardStr != "" || *mergeStr != "" || *sweepRun || *bestRun {
		runSweepMode(sweepModeArgs{
			cfg: cfg, cat: cat, selected: ws, ctx: ctx,
			emitPlan: *emitPlan, planPath: *planPth,
			shard: *shardStr, shardOut: *shardOut,
			merge: *mergeStr, profileDir: *profDir, sweep: *sweepRun,
			prune: *pruneRun, best: *bestRun,
			sms: *sms, size: parseSize(*size),
			cacheDir: *cacheDir, seeds: *seeds, extra: extra,
			stepN: *stepN, stepP: *stepP, workers: *parallel, seed: *seed,
			snapDir: *snapDir, ckpts: ckpts, ictl: ictl,
		})
		return
	}

	// Each run needs its own policy instance (the adaptive policies are
	// stateful), derived deterministically from the run's index.
	newPolicy := func(i int) (sim.Policy, error) {
		switch *policy {
		case "gto":
			return sim.GTO{}, nil
		case "fixed":
			return sim.Fixed{N: *n, P: *p}, nil
		case "poise", "apcm", "ccws", "random-restart":
			// Seed family matches the harness convention (see Fig15):
			// base seed + run index + 1, so -seed 0 on a single
			// workload reproduces the canonical stochastic-policy seed.
			return poise.NewPolicy(poise.PolicySpec{
				Name: *policy,
				Seed: *seed + int64(i) + 1,
			})
		default:
			return nil, fmt.Errorf("unknown policy %q", *policy)
		}
	}
	if _, err := newPolicy(0); err != nil {
		fatal(err)
	}

	// runKey names a run's checkpoint in -snapshot-dir by everything
	// that shapes its state, so a resume can never splice checkpoints
	// across configurations.
	runKey := func(w *sim.Workload) string {
		return fmt.Sprintf("poisesim|%s|%s|%s|sms%d|l1x%d|seed%d|n%d|p%d",
			w.Name, *policy, *size, *sms, *l1x, *seed, *n, *p)
	}
	runWorkload := func(i int, w *sim.Workload) (sim.WorkloadResult, error) {
		pol, err := newPolicy(i)
		if err != nil {
			return sim.WorkloadResult{}, err
		}
		if ckpts == nil {
			return sim.RunWorkload(cfg, w, pol, sim.RunOptions{})
		}
		ro := sim.RunOptions{Interrupt: ictl}
		key := runKey(w)
		var (
			res sim.WorkloadResult
			cp  *sim.Checkpoint
		)
		if sn, lerr := ckpts.Load(key); *resumeR && lerr == nil {
			prev, derr := sim.CheckpointFromSnapshot(sn)
			if derr != nil {
				return res, fmt.Errorf("checkpoint %s: %w", key, derr)
			}
			res, cp, err = sim.ResumeWorkload(cfg, w, pol, ro, prev)
		} else {
			res, cp, err = sim.RunWorkloadPreemptible(cfg, w, pol, ro)
		}
		if err == nil {
			_ = ckpts.Delete(key) // consumed (best effort; a stale probe only costs a read)
			return res, nil
		}
		if errors.Is(err, sim.ErrInterrupted) && cp != nil {
			if serr := ckpts.Save(cp.Snapshot(key)); serr != nil {
				return res, serr
			}
		}
		return res, err
	}

	type run struct {
		res     sim.WorkloadResult
		elapsed time.Duration
	}
	start := time.Now()
	results, err := runner.MapSlice(ctx, *parallel, ws,
		func(_ context.Context, i int, w *sim.Workload) (run, error) {
			t0 := time.Now()
			res, err := runWorkload(i, w)
			if err != nil {
				return run{}, err
			}
			return run{res: res, elapsed: time.Since(t0)}, nil
		})
	if err != nil {
		if ckpts != nil && (errors.Is(err, sim.ErrInterrupted) || errors.Is(err, context.Canceled)) {
			fmt.Printf("preempted: checkpoints saved under %s; rerun with -snapshot-dir %s -resume to continue\n",
				*snapDir, *snapDir)
			return
		}
		fatal(err)
	}
	wall := time.Since(start)

	for i, r := range results {
		if i > 0 {
			fmt.Println()
		}
		printResult(r.res, r.elapsed)
	}
	if len(results) > 1 {
		var serial time.Duration
		for _, r := range results {
			serial += r.elapsed
		}
		workers := runner.NumWorkers(*parallel)
		if workers > len(results) {
			workers = len(results)
		}
		fmt.Printf("\n%d workloads on %d workers: %v wall (%v of simulation)\n",
			len(results), workers,
			wall.Round(time.Millisecond), serial.Round(time.Millisecond))
	}
}

// listSignatures prints every workload with its characterised
// locality signature: the trace-derived In, per-warp footprint, reuse
// distance R and intra/inter reuse split (paper Fig. 4 vocabulary).
func listSignatures(cat *workloads.Catalogue) {
	fmt.Printf("%-12s %7s %8s %10s %8s %7s %7s\n",
		"workload", "kernels", "In", "footprint", "R", "intra%", "inter%")
	for _, name := range cat.Names() {
		w, err := cat.Get(name)
		if err != nil {
			fatal(err)
		}
		// A capped recording keeps the listing interactive at -size
		// large (full streams are only needed for bit-exact replay).
		tr, err := traceio.RecordWith(w, traceio.RecordOptions{MaxWarpIters: 2048})
		if err != nil {
			fatal(fmt.Errorf("characterising %s: %w", name, err))
		}
		sig := traceio.Characterise(tr, traceio.CharacteriseOptions{})
		fmt.Printf("%-12s %7d %8.2f %10.1f %8.1f %7.1f %7.1f\n",
			name, sig.Kernels, sig.In, sig.FootprintLines, sig.ReuseDist,
			sig.IntraPct, sig.InterPct)
	}
}

func printResult(res sim.WorkloadResult, elapsed time.Duration) {
	fmt.Printf("workload        %s (%d kernels)\n", res.Workload, len(res.PerKernel))
	fmt.Printf("policy          %s\n", res.Policy)
	fmt.Printf("cycles          %d\n", res.Cycles)
	fmt.Printf("instructions    %d\n", res.Instructions)
	fmt.Printf("IPC             %.4f\n", res.IPC)
	fmt.Printf("L1 hit rate     %.2f%%  (intra %.2f%% / inter %.2f%% of accesses)\n",
		100*res.L1.HitRate(), 100*res.L1.IntraWarpHitRate(),
		100*float64(res.L1.InterWarpHits)/max1(float64(res.L1.Accesses)))
	fmt.Printf("AML             %.1f cycles\n", res.AML)
	fmt.Printf("L2 accesses     %d (hit rate %.2f%%)\n", res.L2Acc,
		100*float64(res.L2Hits)/max1(float64(res.L2Acc)))
	fmt.Printf("DRAM accesses   %d\n", res.DRAMAcc)
	fmt.Printf("sim wall time   %v\n", elapsed.Round(time.Millisecond))
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
		fatal(fmt.Errorf("unknown size %q", s))
		return workloads.Small
	}
}

func max1(x float64) float64 {
	if x < 1 {
		return 1
	}
	return x
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "poisesim:", err)
	os.Exit(1)
}
