package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"poise/internal/fleet"
	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/results"
	"poise/internal/sim"
)

// The served fleet flow; the -shard flow (sweepmode.go) runs the same
// campaigns as static leases written to files:
// one coordinator process serves lease batches of a plan over HTTP and
// merges the streamed results; long-lived workers pull leases until
// the campaign completes. Crashed workers are recovered by lease
// expiry, loaded workers are relieved by work stealing, and the merged
// output is byte-identical to the single-process run either way:
//
//	poisesim -workload ii -emit-plan plan.jsonl
//	poisesim -serve :9444 -plan plan.jsonl -profile-out profs   # terminal 1
//	poisesim -worker http://HOST:9444                           # terminal 2..N
//
// -serve -prune drives the whole staged refinement loop as one
// campaign — each round's plan is published as the next generation, so
// the manual emit/shard/merge round-trip of the file flow disappears:
//
//	poisesim -workload ii -prune -serve :9444 -cache rounds -profile-out pruned
//	poisesim -worker http://HOST:9444
//
// Cell plans from poisebench serve the same way; the plan file's
// header picks the pipeline, exactly as it does for -shard.

// fleetFlags carries the -serve/-worker flags together with the
// pre-existing mode flags they constrain, so every combination rule
// lives in one pure, table-testable function.
type fleetFlags struct {
	serve  string // -serve: coordinator listen address
	worker string // -worker: coordinator base URL to pull leases from

	leaseTasks int           // -lease-tasks (serve)
	leaseTTL   time.Duration // -lease-ttl (serve)
	dieAfter   int           // -die-after (worker, chaos/CI)
	taskDelay  time.Duration // -task-delay (worker, chaos/CI)

	// Pre-existing flags the fleet modes interact with.
	planPath   string
	emitPlan   string
	shard      string
	merge      string
	profileDir string
	sweep      bool
	best       bool
	prune      bool
}

// validateFleetFlags rejects every inconsistent flag combination
// before anything listens, connects or simulates.
func validateFleetFlags(f fleetFlags) error {
	switch {
	case f.serve == "" && f.worker == "":
		return fmt.Errorf("fleet mode needs -serve or -worker")
	case f.serve != "" && f.worker != "":
		return fmt.Errorf("-serve and -worker are mutually exclusive")
	case f.emitPlan != "":
		return fmt.Errorf("-emit-plan cannot combine with -serve/-worker (the coordinator publishes plans itself)")
	case f.shard != "":
		return fmt.Errorf("-shard cannot combine with -serve/-worker (workers lease tasks instead)")
	case f.merge != "":
		return fmt.Errorf("-merge-shards cannot combine with -serve/-worker (the coordinator merges results itself)")
	case f.sweep:
		return fmt.Errorf("-sweep cannot combine with -serve/-worker")
	case f.best:
		return fmt.Errorf("-best cannot combine with -serve/-worker")
	case f.leaseTasks < 0:
		return fmt.Errorf("-lease-tasks must be positive")
	case f.leaseTTL < 0:
		return fmt.Errorf("-lease-ttl must be positive")
	case f.dieAfter < 0:
		return fmt.Errorf("-die-after must be positive")
	case f.taskDelay < 0:
		return fmt.Errorf("-task-delay must be positive")
	}
	if f.serve != "" {
		switch {
		case f.dieAfter != 0 || f.taskDelay != 0:
			return fmt.Errorf("-die-after and -task-delay are worker flags (use with -worker)")
		case f.planPath != "" && f.prune:
			return fmt.Errorf("-serve takes either -plan (a fixed plan file) or -prune (staged refinement), not both")
		case f.planPath == "" && !f.prune:
			return fmt.Errorf("-serve needs a campaign source: -plan or -prune")
		case f.profileDir == "":
			return fmt.Errorf("-serve needs -profile-out for the merged output")
		}
		return nil
	}
	// Worker: the plan and all merge policy arrive over the wire.
	switch {
	case f.planPath != "":
		return fmt.Errorf("-plan is a coordinator flag; the worker receives the plan from -worker URL")
	case f.profileDir != "":
		return fmt.Errorf("-profile-out is a coordinator flag; the coordinator merges and saves")
	case f.leaseTasks != 0 || f.leaseTTL != 0:
		return fmt.Errorf("-lease-tasks and -lease-ttl are coordinator flags (use with -serve)")
	}
	return nil
}

// runFleetMode dispatches -serve/-worker after validating the flag
// set, deriving the sweep options and profile tag exactly as the
// file-based modes do so both flows key the same cache entries.
func runFleetMode(a sweepModeArgs, f fleetFlags) {
	if err := validateFleetFlags(f); err != nil {
		fatal(err)
	}
	opts := a.sweepOptions()
	tag := profile.SweepTag(a.cfg, opts)
	if a.seed != 0 {
		tag = fmt.Sprintf("%s-seed%d", tag, a.seed)
	}
	if f.worker != "" {
		runFleetWorker(a, f, opts)
		return
	}
	runFleetServe(a, f, opts, tag)
}

// runFleetServe runs the coordinator: build the campaign from -plan or
// -prune, serve it to completion, then save the merged results under
// -profile-out with the exact assembly code of the single-process
// modes (which is what makes the output byte-identical to them).
func runFleetServe(a sweepModeArgs, f fleetFlags, opts profile.SweepOptions, tag string) {
	camp, save, err := serveCampaign(a, f, opts, tag)
	if err != nil {
		fatal(err)
	}
	coord, err := fleet.NewCoordinator(camp, fleet.Options{
		LeaseTasks: f.leaseTasks,
		LeaseTTL:   f.leaseTTL,
		Logf:       stdoutLogf,
	})
	if err != nil {
		fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() { fmt.Printf("fleet: serving on %s\n", <-addrCh) }()
	res, err := coord.Serve(a.ctx, f.serve, addrCh)
	if err != nil {
		fatal(err)
	}
	if err := save(res); err != nil {
		fatal(err)
	}
}

// serveCampaign builds the coordinator's campaign and the matching
// save step: a -plan file, or the staged refinement campaign under
// -prune.
func serveCampaign(a sweepModeArgs, f fleetFlags, opts profile.SweepOptions, tag string) (fleet.Campaign, func([]fleet.Result) error, error) {
	if !f.prune {
		return planCampaign(f.planPath, f.profileDir)
	}
	camp, err := refineCampaign(a, opts, tag)
	if err != nil {
		return nil, nil, err
	}
	save := func([]fleet.Result) error {
		names, err := camp.SaveTo(profile.Store{Dir: f.profileDir})
		if err != nil {
			return err
		}
		fmt.Printf("fleet: assembled %d pruned profiles -> %s\n", len(names), f.profileDir)
		return nil
	}
	return camp, save, nil
}

// refineCampaign builds the staged refinement over the selected
// workloads' kernels. -cache persists completed rounds, so an
// interrupted campaign resumes instead of re-simulating, and the
// served and static-lease flows can each pick up where the other left
// off.
func refineCampaign(a sweepModeArgs, opts profile.SweepOptions, tag string) (*fleet.RefineCampaign, error) {
	kernels := sim.DistinctKernels(a.selected)
	tags := make(map[string]string, len(kernels))
	for _, k := range kernels {
		tags[k.Name] = tag
	}
	return fleet.NewRefineCampaign(a.cfg, kernels, tags, opts, profile.Store{Dir: a.cacheDir})
}

// planCampaign builds the campaign of a -plan file — a profile sweep
// plan or an experiment cell plan, sniffed by header — and the save
// step that writes its merged results into out.
func planCampaign(path, out string) (fleet.Campaign, func([]fleet.Result) error, error) {
	switch format := planFormat(path); format {
	case gridplan.ProfilePlanFormat:
		plan, err := gridplan.ReadPlanFile(path)
		if err != nil {
			return nil, nil, err
		}
		save := func(res []fleet.Result) error {
			names, err := fleet.SaveProfiles(profile.Store{Dir: out}, res)
			if err != nil {
				return err
			}
			fmt.Printf("saved %d profiles -> %s\n", len(names), out)
			return nil
		}
		return fleet.ProfileCampaign{Plan: plan}, save, nil
	case gridplan.CellPlanFormat:
		plan, err := gridplan.ReadCellPlanFile(path)
		if err != nil {
			return nil, nil, err
		}
		if len(plan.Cells) == 0 {
			return nil, nil, fmt.Errorf("cell plan %s is empty", path)
		}
		save := func(res []fleet.Result) error {
			_, grid, n, err := fleet.SaveCells(results.Store{Dir: out}, res)
			if err != nil {
				return err
			}
			fmt.Printf("saved %d cells of grid %s -> %s\n", n, grid, out)
			return nil
		}
		return fleet.CellCampaign{Plan: plan}, save, nil
	default:
		return nil, nil, fmt.Errorf("plan %s: unknown format %q", path, format)
	}
}

// executors registers both executors from this process's flags, so
// one worker serves profile sweeps, refinement rounds and experiment
// cell grids alike — the plan's format picks the pipeline, and the
// plan's digests and tags verify that these flags reproduce the
// configuration it was emitted under before anything simulates.
func executors(a sweepModeArgs, opts profile.SweepOptions) map[string]fleet.Executor {
	return map[string]fleet.Executor{
		gridplan.ProfilePlanFormat: fleet.ProfileExecutor{
			Cfg: a.cfg, Kernels: catalogueKernels(a.cat), Opts: opts,
		},
		gridplan.CellPlanFormat: fleet.CellExecutor{H: a.harness()},
	}
}

// runFleetWorker runs one long-lived worker against the coordinator at
// -worker URL.
func runFleetWorker(a sweepModeArgs, f fleetFlags, opts profile.SweepOptions) {
	host, _ := os.Hostname()
	name := fmt.Sprintf("%s-%d", host, os.Getpid())
	w := &fleet.Worker{
		Base:      f.worker,
		Name:      name,
		Executors: executors(a, opts),
		Logf:      stdoutLogf,
	}
	// -die-after and -task-delay are the CI chaos hooks: the fleet
	// round-trip kills one worker mid-lease and slows another until
	// stealing fires, then byte-diffs the merged output anyway. With
	// -snapshot-dir the death is checkpointed: the hook fires the
	// interrupt control, so the next task stops at a safe point, writes
	// its checkpoint to the shared store, and the lease lapses for
	// another worker to resume the task bit-identically.
	if f.dieAfter > 0 || f.taskDelay > 0 {
		w.BeforeTask = func(done int) error {
			if f.dieAfter > 0 && done >= f.dieAfter {
				if a.ictl != nil {
					a.ictl.Trigger()
					return nil
				}
				return fmt.Errorf("worker dying after %d tasks (-die-after)", done)
			}
			if f.taskDelay > 0 {
				select {
				case <-a.ctx.Done():
					return a.ctx.Err()
				case <-time.After(f.taskDelay):
				}
			}
			return nil
		}
	}
	if err := w.Run(a.ctx); err != nil {
		if errors.Is(err, sim.ErrInterrupted) {
			// Preemption is a clean exit: the in-flight task is
			// checkpointed in -snapshot-dir and any worker pointed there
			// picks it up once the lease lapses.
			fmt.Printf("worker %s: preempted; checkpoint saved under %s\n", name, a.snapDir)
			return
		}
		fatal(err)
	}
	fmt.Printf("worker %s: campaign complete\n", name)
}

// stdoutLogf adapts fleet's Logf convention (printf format, no
// newline) to stdout lines, where CI greps the coordinator's final
// stats line for the expiry and steal counters.
func stdoutLogf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}
