package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"poise/internal/experiments"
	"poise/internal/fleet"
)

// The fleet service flow for poisebench: the coordinator serves the
// same campaigns the file-based -emit-plan/-shard/-merge-shards flow
// runs as static leases, but over HTTP to long-lived workers, with
// crash recovery (lease expiry), load rebalancing (work stealing) and
// the merged results landing directly in -cache — so the follow-up
// `poisebench -run ...` assembles its figures without re-simulating:
//
//	poisebench -run all -cache c -serve :9444      # profile sweeps
//	poisebench -run fig7 -cache c -serve :9444     # one experiment grid
//	poisebench -worker http://HOST:9444 -cache c   # terminal 2..N
//
// With -prune -run all the coordinator drives the whole refinement
// loop as one campaign, publishing each round's plan as the next
// generation instead of requiring the emit/shard/merge round trip.

// benchFleetFlags carries the -serve/-worker flags plus the flags they
// constrain, so the combination rules live in one testable function.
type benchFleetFlags struct {
	serve  string
	worker string

	leaseTasks int
	leaseTTL   time.Duration

	run      string
	cacheDir string
	emitPlan string
	shard    string
	merge    bool
	prune    bool
}

// validateBenchFleetFlags rejects inconsistent combinations before
// anything listens or simulates.
func validateBenchFleetFlags(f benchFleetFlags) error {
	switch {
	case f.serve == "" && f.worker == "":
		return fmt.Errorf("fleet mode needs -serve or -worker")
	case f.serve != "" && f.worker != "":
		return fmt.Errorf("-serve and -worker are mutually exclusive")
	case f.emitPlan != "" || f.shard != "" || f.merge:
		return fmt.Errorf("-serve/-worker cannot combine with the file-based -emit-plan/-shard/-merge-shards flow")
	case f.leaseTasks < 0:
		return fmt.Errorf("-lease-tasks must be positive")
	case f.leaseTTL < 0:
		return fmt.Errorf("-lease-ttl must be positive")
	}
	if f.worker != "" {
		if f.leaseTasks != 0 || f.leaseTTL != 0 {
			return fmt.Errorf("-lease-tasks and -lease-ttl are coordinator flags (use with -serve)")
		}
		return nil
	}
	// Coordinator: merged results land in the cache, and -run selects
	// the campaign exactly as it selects the file-based plan kind.
	if f.cacheDir == "" {
		return fmt.Errorf("-serve needs -cache for the merged output")
	}
	run := strings.TrimSpace(strings.ToLower(f.run))
	if run != "all" {
		if strings.Contains(run, ",") {
			return fmt.Errorf("-serve takes a single experiment in -run, got %q", f.run)
		}
		if _, ok := gridForExp[run]; !ok {
			return fmt.Errorf("experiment %q is not grid-backed; use -run all for profile sweeps, or one of: %s",
				run, gridBackedNames())
		}
	}
	return nil
}

// runFleetMode dispatches poisebench's -serve/-worker modes.
func runFleetMode(ctx context.Context, h *experiments.Harness, f benchFleetFlags) error {
	if err := validateBenchFleetFlags(f); err != nil {
		return err
	}
	if f.worker != "" {
		return runFleetWorker(ctx, h, f)
	}
	return runFleetServe(ctx, h, f)
}

// runFleetServe builds the campaign -run selects, serves it to
// completion, and saves the merged results into the harness's own
// cache stores — the same directories the static-lease merge writes,
// so figure assembly loads them identically.
func runFleetServe(ctx context.Context, h *experiments.Harness, f benchFleetFlags) error {
	camp, save, err := fleet.HarnessCampaign(h, gridForExp[strings.TrimSpace(strings.ToLower(f.run))])
	if err != nil {
		return err
	}
	coord, err := fleet.NewCoordinator(camp, fleet.Options{
		LeaseTasks: f.leaseTasks,
		LeaseTTL:   f.leaseTTL,
		Logf:       stdoutLogf,
	})
	if err != nil {
		return err
	}
	addrCh := make(chan string, 1)
	go func() { fmt.Printf("fleet: serving on %s\n", <-addrCh) }()
	res, err := coord.Serve(ctx, f.serve, addrCh)
	if err != nil {
		return err
	}
	msg, err := save(res)
	if err != nil {
		return err
	}
	fmt.Println("fleet:", msg)
	return nil
}

// runFleetWorker serves leases from the coordinator; the
// coordinator's plan format picks the pipeline, and the plan's tag and
// digests verify this process's flags reproduce the coordinator's
// configuration.
func runFleetWorker(ctx context.Context, h *experiments.Harness, f benchFleetFlags) error {
	host, _ := os.Hostname()
	name := fmt.Sprintf("%s-%d", host, os.Getpid())
	w := &fleet.Worker{
		Base:      f.worker,
		Name:      name,
		Executors: fleet.HarnessExecutors(h),
		Logf:      stdoutLogf,
	}
	if err := w.Run(ctx); err != nil {
		return err
	}
	fmt.Printf("worker %s: campaign complete\n", name)
	return nil
}

// stdoutLogf adapts fleet's Logf convention (printf format, no
// newline) to stdout lines; CI greps the coordinator's stats line.
func stdoutLogf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}
