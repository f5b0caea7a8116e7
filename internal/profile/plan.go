package profile

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

	"poise/internal/config"
	"poise/internal/gridplan"
	"poise/internal/runner"
	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/trace"
)

// This file is the sharded face of the sweep: a sweep is planned
// (BuildPlan), executed task by task (RunTasks) — possibly split
// across processes or machines as plan shards — and the measurements
// are merged back into a Profile (MergeShards). The in-process Sweep
// is exactly the one-shard instance of this pipeline, so merging any
// shard decomposition reproduces it bit for bit.

// BuildPlan enumerates the sweep grid of kernel k on cfg as a
// serialisable plan. tag identifies the configuration (the profile
// cache key); the tasks carry k's content digest so a worker process
// can verify its catalogue materialises the same kernel before
// simulating.
func BuildPlan(tag string, cfg config.Config, k *trace.Kernel, opts SweepOptions) *gridplan.Plan {
	opts = opts.withDefaults()
	maxN := kernelMaxN(cfg, k)
	digest := gridplan.KernelDigest(k)
	plan := &gridplan.Plan{Version: gridplan.PlanVersion}
	for _, c := range gridplan.Enumerate(maxN, opts.StepN, opts.StepP) {
		plan.Tasks = append(plan.Tasks, gridplan.Task{
			Tag: tag, Kernel: k.Name, Digest: digest,
			N: c.N, P: c.P, Seed: k.Seed,
		})
	}
	return plan
}

// RunTasks executes plan tasks — typically one shard — and returns
// their raw measurements in task order. Kernels are resolved by name
// from the given set and their content digests are verified against
// the plan before anything simulates. Tasks fan out across
// opts.Workers goroutines; each in-flight task runs on its own GPU
// drawn from a shared pool (reset between runs is bit-identical to
// fresh construction, so reuse cannot perturb results). Measurements
// are raw: speedups are computed at merge time, because the baseline
// point may live in another shard.
func RunTasks(cfg config.Config, kernels map[string]*trace.Kernel, tasks []gridplan.Task, opts SweepOptions) ([]gridplan.Measurement, error) {
	opts = opts.withDefaults()
	digests := map[string]string{}
	for _, t := range tasks {
		k := kernels[t.Kernel]
		if k == nil {
			return nil, fmt.Errorf("profile: plan task %s needs kernel %q, not in the catalogue", t.Key(), t.Kernel)
		}
		if t.Digest == "" {
			continue
		}
		d, ok := digests[t.Kernel]
		if !ok {
			d = gridplan.KernelDigest(k)
			digests[t.Kernel] = d
		}
		if d != t.Digest {
			return nil, fmt.Errorf(
				"profile: kernel %q digest mismatch: plan has %s, catalogue materialises %s (stale plan or drifted catalogue?)",
				t.Kernel, t.Digest, d)
		}
	}

	if opts.FreshGPUs {
		return mapTasks(kernels, tasks, opts,
			func() (*sim.GPU, error) { return sim.New(cfg) }, func(*sim.GPU) {})
	}
	pool, err := sim.NewPool(cfg)
	if err != nil {
		return nil, err
	}
	return mapTasks(kernels, tasks, opts, pool.Get, pool.Put)
}

// taskCheckpointKey names a task's mid-run snapshot in a checkpoint
// store: the full task identity plus the kernel content digest, so a
// checkpoint from a stale plan can never resume against drifted traces.
func taskCheckpointKey(t gridplan.Task) string {
	return "task|" + t.Key() + "|" + t.Digest
}

func mapTasks(kernels map[string]*trace.Kernel, tasks []gridplan.Task, opts SweepOptions,
	get func() (*sim.GPU, error), put func(*sim.GPU)) ([]gridplan.Measurement, error) {
	return runner.MapSlice(opts.Ctx, opts.Workers, tasks,
		func(_ context.Context, _ int, t gridplan.Task) (gridplan.Measurement, error) {
			k := kernels[t.Kernel]
			g, err := get()
			if err != nil {
				return gridplan.Measurement{}, err
			}
			res, err := runTask(g, k, t, opts)
			put(g)
			if err != nil {
				return gridplan.Measurement{}, fmt.Errorf("profile: point (%d,%d) of %s: %w", t.N, t.P, t.Kernel, err)
			}
			return gridplan.Measurement{
				Tag: t.Tag, Kernel: t.Kernel, N: t.N, P: t.P,
				IPC:     res.IPC,
				HitRate: res.L1.HitRate(),
				AML:     res.AML,
				Cycles:  res.Cycles, Instructions: res.Instructions,
			}, nil
		})
}

// runTask simulates one grid point, resuming a stored checkpoint when
// one exists and writing one when the task is preempted. The
// measurement a resumed task produces is bit-identical to an
// uninterrupted run (sim's snapshot covers all live engine state), so
// checkpointing never perturbs merged sweep output.
func runTask(g *sim.GPU, k *trace.Kernel, t gridplan.Task, opts SweepOptions) (sim.KernelResult, error) {
	pol := sim.Fixed{N: t.N, P: t.P}
	ro := sim.RunOptions{MaxCycles: opts.MaxCycles, Interrupt: opts.Interrupt}
	key := taskCheckpointKey(t)
	if opts.Checkpoints != nil {
		if sn, err := opts.Checkpoints.Load(key); err == nil && sn.Kind == snap.KindTask {
			res, rerr := g.ResumeKernel(k, pol, ro, sn.State)
			if rerr == nil {
				// Best effort: a leftover checkpoint only wastes a probe.
				_ = opts.Checkpoints.Delete(key)
				return res, nil
			}
			if errors.Is(rerr, sim.ErrInterrupted) {
				return res, saveTaskCheckpoint(g, pol, t, key, opts, rerr)
			}
			// Unreadable checkpoint: scrub the half-restored GPU and run
			// the task from the start.
			g.Reset()
		}
	}
	res, err := g.Run(k, pol, ro)
	if err != nil {
		if errors.Is(err, sim.ErrInterrupted) && opts.Checkpoints != nil {
			return res, saveTaskCheckpoint(g, pol, t, key, opts, err)
		}
		return res, err
	}
	return res, nil
}

// saveTaskCheckpoint snapshots a preempted task and returns the
// interrupt error (annotated if the save itself failed).
func saveTaskCheckpoint(g *sim.GPU, pol sim.Policy, t gridplan.Task, key string, opts SweepOptions, cause error) error {
	state, err := g.SnapshotKernel(pol)
	if err != nil {
		return fmt.Errorf("profile: checkpointing preempted task: %v (preempted by %w)", err, cause)
	}
	sn := &snap.Snapshot{
		Kind:     snap.KindTask,
		Key:      key,
		Workload: t.Kernel,
		Cycle:    g.Now(),
		State:    state,
	}
	if err := opts.Checkpoints.Save(sn); err != nil {
		return fmt.Errorf("profile: saving task checkpoint: %v (preempted by %w)", err, cause)
	}
	return cause
}

// MergeShards assembles per-shard measurement sets into the kernel's
// Profile, bit-identical to an in-process Sweep of the same grid: the
// merged points sort by (N, P) — the order Sweep emits — speedups are
// normalised against the merged (maxN, maxN) baseline with the same
// float operation Sweep uses, and the baseline's speedup is exactly 1.
func MergeShards(kernel string, shards ...[]gridplan.Measurement) (*Profile, error) {
	ms, err := gridplan.Merge(shards...)
	if err != nil {
		return nil, err
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("profile: merging %s: no measurements", kernel)
	}
	maxN := 0
	for _, m := range ms {
		if m.Kernel != kernel {
			return nil, fmt.Errorf("profile: merging %s: shard contains measurement for %s", kernel, m.Kernel)
		}
		if m.Tag != ms[0].Tag {
			return nil, fmt.Errorf("profile: merging %s: mixed configuration tags %q and %q", kernel, ms[0].Tag, m.Tag)
		}
		if m.N > maxN {
			maxN = m.N
		}
	}
	var base *gridplan.Measurement
	for i := range ms {
		if ms[i].N == maxN && ms[i].P == maxN {
			base = &ms[i]
			break
		}
	}
	if base == nil {
		return nil, fmt.Errorf("profile: merging %s: baseline point (%d,%d) missing from shards", kernel, maxN, maxN)
	}
	pr := &Profile{
		Kernel: kernel, MaxN: maxN,
		Baseline: Point{
			N: maxN, P: maxN, IPC: base.IPC, Speedup: 1,
			HitRate: base.HitRate, AML: base.AML,
		},
		BaselineCycles: base.Cycles,
		BaselineInstr:  base.Instructions,
	}
	for _, m := range ms {
		pt := Point{N: m.N, P: m.P, IPC: m.IPC, HitRate: m.HitRate, AML: m.AML}
		if m.N == maxN && m.P == maxN {
			pt.Speedup = 1
		} else if base.IPC > 0 {
			pt.Speedup = m.IPC / base.IPC
		}
		pr.Points = append(pr.Points, pt)
	}
	// gridplan.Merge already ordered by key, which is (N, P) order for a
	// single (tag, kernel); keep the explicit sort as a guard so the
	// Profile contract never depends on key formatting.
	sort.Slice(pr.Points, func(i, j int) bool {
		if pr.Points[i].N != pr.Points[j].N {
			return pr.Points[i].N < pr.Points[j].N
		}
		return pr.Points[i].P < pr.Points[j].P
	})
	pr.buildIndex()
	return pr, nil
}

// SweepTag digests the sweep-relevant parts of (configuration, grid
// resolution) into a short cache tag for standalone (non-harness)
// sweeps, e.g. the poisesim plan/shard flow. Two processes agreeing on
// flags agree on the tag, so their plan, lease results and merged
// profiles key consistently.
func SweepTag(cfg config.Config, opts SweepOptions) string {
	opts = opts.withDefaults()
	s := fmt.Sprintf("%+v|%d.%d", cfg, opts.StepN, opts.StepP)
	if opts.Refine != nil {
		// Pruned profiles carry a subset of the grid, so a pruned
		// campaign must never collide with an exhaustive one — or with
		// a pruned one refined under different parameters.
		s += "|prune" + opts.Refine.Tag()
	}
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:6])
}
