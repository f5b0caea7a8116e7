package main

import (
	"context"
	"fmt"

	"poise/internal/config"
	"poise/internal/experiments"
	"poise/internal/fleet"
	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/trace"
	"poise/internal/workloads"
)

// The sharded campaign flow, file-based so each step can run in a
// different process (or on a different machine — ship the plan out,
// ship the lease files back). A file shard is a static lease of the
// fleet (package fleet): worker i of N runs slice i/N of the plan
// through the same executor a -worker process uses and writes the
// results in the coordinator's completion format; -merge-shards feeds
// the files through the coordinator's completion path and saves the
// result with the same code -serve uses. Profile sweep plans:
//
//	poisesim -workload ii -emit-plan plan.jsonl            # coordinator
//	poisesim -plan plan.jsonl -shard 0/2 -shard-out s0.jsonl   # worker 0
//	poisesim -plan plan.jsonl -shard 1/2 -shard-out s1.jsonl   # worker 1
//	poisesim -plan plan.jsonl -merge-shards s0.jsonl,s1.jsonl -profile-out profs
//
// -sweep writes the unsharded reference profiles for the same grid, so
// `diff -r` between the two output directories proves the shard path
// bit-identical (CI does exactly that).
//
// The same -plan/-shard/-merge-shards flags accept experiment-grid
// cell plans emitted by `poisebench -run <exp> -emit-plan` (the file's
// header says which kind it is): -shard runs the slice of workload x
// scheme cells through the experiment harness, and -merge-shards
// writes the merged cells into -profile-out, which poisebench then
// loads as its -cache. The worker's flags must reproduce the
// coordinator's configuration — the plan carries the configuration tag
// and workload digests, and mismatches fail before anything simulates.

type sweepModeArgs struct {
	cfg      config.Config
	cat      *workloads.Catalogue
	selected []*sim.Workload
	ctx      context.Context

	emitPlan   string
	planPath   string
	shard      string
	shardOut   string
	merge      string
	profileDir string
	sweep      bool
	prune      bool
	best       bool

	sms          int
	size         workloads.Size
	cacheDir     string
	seeds        int
	extra        []*sim.Workload
	stepN, stepP int
	workers      int
	seed         int64

	// Mid-run snapshot wiring (-snapshot-dir / -ckpt-at-cycle):
	// preempted tasks checkpoint into ckpts and later runs pointed at
	// the same directory resume them; cell-plan shards additionally use
	// the directory as the kernel-boundary prefix cache.
	snapDir string
	ckpts   *snap.Store
	ictl    *sim.InterruptCtl
}

// sweepOptions derives the profile.SweepOptions every mode shares,
// including the preemption wiring when -snapshot-dir is set.
func (a sweepModeArgs) sweepOptions() profile.SweepOptions {
	opts := profile.SweepOptions{StepN: a.stepN, StepP: a.stepP, Workers: a.workers, Ctx: a.ctx}
	if a.prune {
		opts.Refine = &profile.RefineOptions{}
	}
	opts.Interrupt = a.ictl
	opts.Checkpoints = a.ckpts
	return opts
}

// harness builds the experiment harness a cell plan's shard runs on,
// from the worker's own flags (tag agreement with the coordinator is
// verified against the plan before simulating). -cache shares the
// profile store across workers so profile-hungry grids (the scheme
// comparison's SWL/Static-Best cells, the ablation grid's training
// sweeps) pay for their sweeps once per campaign instead of once per
// shard; -trace workloads join the harness catalogue exactly as they
// do on the poisebench coordinator.
func (a sweepModeArgs) harness() *experiments.Harness {
	return experiments.NewHarness(experiments.Options{
		SMs: a.sms, Size: a.size, Seed: a.seed,
		CacheDir: a.cacheDir, RandomSeeds: a.seeds,
		EvalStepN: a.stepN, EvalStepP: a.stepP,
		Workers: a.workers, Ctx: a.ctx,
		ExtraWorkloads: a.extra,
		Prune:          a.prune,
		SnapshotDir:    a.snapDir,
	})
}

// validateSweepFlags rejects inconsistent file-based mode combinations
// before any file is read or task simulated. The cases mirror
// runSweepMode's dispatch order exactly, so the check always applies
// to the mode that would actually run; the table-driven cmd tests
// exercise every branch.
func validateSweepFlags(a sweepModeArgs) error {
	switch {
	case a.best:
		if a.profileDir == "" {
			return fmt.Errorf("-best needs -profile-out (the profile directory to read)")
		}
	case a.prune && a.emitPlan != "":
		if a.cacheDir == "" {
			return fmt.Errorf("-prune -emit-plan needs -cache for round partials")
		}
	case a.prune && a.merge != "":
		if a.planPath == "" || a.cacheDir == "" {
			return fmt.Errorf("-prune -merge-shards needs -plan and -cache")
		}
	case a.prune && a.sweep:
		if a.profileDir == "" {
			return fmt.Errorf("-prune -sweep needs -profile-out")
		}
	case a.emitPlan != "":
		// Plan emission needs only the workload selection.
	case a.shard != "":
		if _, _, err := gridplan.ParseShard(a.shard); err != nil {
			return err
		}
		if a.planPath == "" || a.shardOut == "" {
			return fmt.Errorf("-shard needs -plan and -shard-out")
		}
	case a.merge != "":
		if a.planPath == "" || a.profileDir == "" {
			return fmt.Errorf("-merge-shards needs -plan and -profile-out")
		}
	case a.sweep:
		if a.profileDir == "" {
			return fmt.Errorf("-sweep needs -profile-out")
		}
	}
	return nil
}

func runSweepMode(a sweepModeArgs) {
	if err := validateSweepFlags(a); err != nil {
		fatal(err)
	}
	// Default refinement parameters under -prune; folding them into the
	// tag keeps pruned and exhaustive campaigns from sharing cache
	// entries or round files.
	opts := a.sweepOptions()
	// The tag keys profiles by everything that changes them: the scaled
	// configuration, the grid resolution, the pruning mode, and the
	// catalogue seed (the kernels' stochastic streams). All processes
	// of one campaign agree on these flags, so they agree on the tag.
	tag := profile.SweepTag(a.cfg, opts)
	if a.seed != 0 {
		tag = fmt.Sprintf("%s-seed%d", tag, a.seed)
	}

	switch {
	case a.best:
		printBestTable(a.profileDir)

	case a.prune && a.emitPlan != "":
		// The next round is derived from the rounds folded into -cache
		// and written as an ordinary plan, which -shard workers lease
		// from unchanged. Once every kernel has converged the final
		// profiles are assembled into -profile-out (when given) instead;
		// loop drivers grep for "refinement complete".
		camp, err := refineCampaign(a, opts, tag)
		if err != nil {
			fatal(err)
		}
		n, done, err := fleet.EmitPlan(camp, a.emitPlan)
		if err != nil {
			fatal(err)
		}
		if !done {
			fmt.Printf("refine round plan %s: %d tasks (tag %s)\n", a.emitPlan, n, tag)
			return
		}
		if a.profileDir != "" {
			names, err := camp.SaveTo(profile.Store{Dir: a.profileDir})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("assembled %d pruned profiles -> %s\n", len(names), a.profileDir)
		}
		fmt.Println("refinement complete")

	case a.prune && a.merge != "":
		plan, err := gridplan.ReadPlanFile(a.planPath)
		if err != nil {
			fatal(err)
		}
		// The round's kernels and tags come from its plan, so the merge
		// needs no -workload; the grid flags must match the emit's.
		kernels := catalogueKernels(a.cat)
		var ks []*trace.Kernel
		tags := map[string]string{}
		for _, g := range plan.Kernels() {
			if kernels[g.Kernel] == nil {
				fatal(fmt.Errorf("plan %s: kernel %s is not in the catalogue", a.planPath, g.Kernel))
			}
			ks = append(ks, kernels[g.Kernel])
			tags[g.Kernel] = g.Tag
		}
		camp, err := fleet.NewRefineCampaign(a.cfg, ks, tags, opts, profile.Store{Dir: a.cacheDir})
		if err != nil {
			fatal(err)
		}
		// A retried merge of a round already folded into -cache must not
		// append it again; leases of any other stale round are refused
		// by the merge itself.
		if camp.Merged(plan) {
			fmt.Printf("round %s already merged (%d points), skipping\n", a.planPath, len(plan.Tasks))
			return
		}
		_, done := mergeShards(camp, a.merge)
		fmt.Printf("merged refinement round %s -> %s\n", a.planPath, a.cacheDir)
		if done {
			fmt.Println("refinement converged; -emit-plan assembles the profiles")
		}

	case a.prune && a.sweep:
		if a.profileDir == "" {
			fatal(fmt.Errorf("-prune -sweep needs -profile-out"))
		}
		st := profile.Store{Dir: a.profileDir}
		for _, k := range sim.DistinctKernels(a.selected) {
			pr, stats, err := profile.PrunedSweep(a.cfg, k, opts)
			if err != nil {
				fatal(err)
			}
			if err := st.Save(tag, pr); err != nil {
				fatal(err)
			}
			fmt.Printf("pruned %s: %d of %d grid points (%.0f%%) in %d rounds -> %s\n",
				k.Name, stats.Simulated, stats.GridPoints, 100*stats.Fraction(),
				stats.Rounds, a.profileDir)
		}

	case a.emitPlan != "":
		plan := &gridplan.Plan{Version: gridplan.PlanVersion}
		kernels := sim.DistinctKernels(a.selected)
		for _, k := range kernels {
			kp := profile.BuildPlan(tag, a.cfg, k, opts)
			plan.Tasks = append(plan.Tasks, kp.Tasks...)
		}
		n, _, err := fleet.EmitPlan(fleet.ProfileCampaign{Plan: plan}, a.emitPlan)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("plan %s: %d tasks over %d kernels (tag %s)\n", a.emitPlan, n, len(kernels), tag)

	case a.shard != "":
		index, count, err := gridplan.ParseShard(a.shard)
		if err != nil {
			fatal(err)
		}
		camp, _, err := planCampaign(a.planPath, "")
		if err != nil {
			fatal(err)
		}
		c, err := fleet.NewCoordinator(camp, fleet.Options{})
		if err != nil {
			fatal(err)
		}
		n, err := c.RunLease(executors(a, opts), index, count, a.shardOut)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("shard %d/%d of plan %s: %d tasks -> %s\n", index, count, c.Plan(), n, a.shardOut)

	case a.merge != "":
		camp, save, err := planCampaign(a.planPath, a.profileDir)
		if err != nil {
			fatal(err)
		}
		res, _ := mergeShards(camp, a.merge)
		if err := save(res); err != nil {
			fatal(err)
		}

	case a.sweep:
		if a.profileDir == "" {
			fatal(fmt.Errorf("-sweep needs -profile-out"))
		}
		st := profile.Store{Dir: a.profileDir}
		for _, k := range sim.DistinctKernels(a.selected) {
			pr, err := profile.Sweep(a.cfg, k, opts)
			if err != nil {
				fatal(err)
			}
			if err := st.Save(tag, pr); err != nil {
				fatal(err)
			}
			fmt.Printf("swept %s: %d points -> %s\n", k.Name, len(pr.Points), a.profileDir)
		}
	}
}

// planFormat sniffs a -plan file's header so the shard and merge
// modes dispatch between profile sweep plans and experiment cell
// plans without a separate flag.
func planFormat(path string) string {
	format, err := gridplan.PlanFileFormat(path)
	if err != nil {
		fatal(err)
	}
	return format
}

// mergeShards merges the -merge-shards lease files into the campaign's
// current generation: a missing lease, a lease of another plan or
// round, or a worker whose results are not tasks of the plan fails
// loudly. It returns the generation's results and whether the
// campaign is complete.
func mergeShards(camp fleet.Campaign, list string) ([]fleet.Result, bool) {
	files, err := gridplan.SplitFiles(list)
	if err != nil {
		fatal(fmt.Errorf("-merge-shards: %w", err))
	}
	c, err := fleet.NewCoordinator(camp, fleet.Options{})
	if err != nil {
		fatal(err)
	}
	res, done, err := c.MergeLeases(files)
	if err != nil {
		fatal(err)
	}
	return res, done
}

// printBestTable derives the static policy table — the Static-Best,
// SWL-diagonal and Eq. 12 scored tuples with their profiled speedups —
// from every profile JSON in -profile-out. Pruned and exhaustive
// campaigns of the same grid must print byte-identical tables (CI
// diffs exactly that), because those tuples are all any experiment
// consumes from a profile. The derivation is profile.BestTable — the
// same function the serve layer's /table endpoint answers with, so the
// two surfaces cannot drift apart.
func printBestTable(dir string) {
	if dir == "" {
		fatal(fmt.Errorf("-best needs -profile-out (the profile directory to read)"))
	}
	table, err := profile.BestTable(dir, config.DefaultPoise())
	if err != nil {
		fatal(err)
	}
	fmt.Print(table)
}

// catalogueKernels indexes every kernel of every catalogue workload by
// name, so a shard worker resolves plan tasks regardless of its own
// -workload selection; the plan's content digests still guard against
// a catalogue that materialises different kernels.
func catalogueKernels(cat *workloads.Catalogue) map[string]*trace.Kernel {
	idx := map[string]*trace.Kernel{}
	for _, name := range cat.Names() {
		w, err := cat.Get(name)
		if err != nil {
			fatal(err)
		}
		for _, k := range w.Kernels {
			idx[k.Name] = k
		}
	}
	return idx
}
