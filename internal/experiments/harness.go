// Package experiments reproduces every table and figure of the paper's
// evaluation (§VII). Each experiment is a method on Harness returning
// structured rows, so the same code backs the poisebench command, the
// top-level testing.B benchmarks and EXPERIMENTS.md.
//
// Experiments run on a scaled GPU (default 8 SMs with a proportionally
// scaled memory system, see config.Config.Scale) and the Small workload
// size; both are configurable. Offline {N, p} sweeps are cached on disk
// keyed by a configuration digest, because SWL, PCAL-SWL, Static-Best
// and the training pipeline all consume them.
package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"poise/internal/config"
	"poise/internal/gridplan"
	"poise/internal/poise"
	"poise/internal/profile"
	"poise/internal/results"
	"poise/internal/runner"
	"poise/internal/sim"
	"poise/internal/trace"
	"poise/internal/workloads"
)

// Options configures a Harness.
type Options struct {
	SMs      int            // simulated SM count (default 8)
	Size     workloads.Size // workload scale (default Small)
	CacheDir string         // profile cache directory ("" = no cache)

	// Sweep grids: evaluation profiles need enough resolution for
	// Static-Best; training profiles can be coarser.
	EvalStepN, EvalStepP   int
	TrainStepN, TrainStepP int

	// Prune switches the profile sweeps — evaluation and training —
	// to the adaptive coarse-to-fine refinement (profile.PrunedSweep):
	// a coarse pass plus score-ranked neighbourhood expansion that
	// simulates a fraction of the grid while selecting the same Best /
	// BestDiagonal / BestScore tuples as the exhaustive sweep, which
	// is all the tables and training consume — no figure moves. The
	// two figures that render or walk the whole solution space (Fig. 2
	// and Fig. 17) always sweep their one kernel exhaustively
	// (KernelProfileFull), pruned or not. Pruned campaigns cache under
	// a distinct tag, so pruned and exhaustive runs never share
	// profile entries.
	Prune bool

	// Seeds for the random-restart policy (paper averages 20 runs).
	RandomSeeds int

	// Weights overrides the embedded default model (zero value = use
	// DefaultWeights, falling back to training when empty).
	Weights *poise.Weights

	// Workers bounds the goroutines the harness fans simulations out
	// across (<= 0 means GOMAXPROCS, 1 forces sequential execution).
	// Every experiment is bit-identical at any worker count: tasks
	// share no mutable state and results aggregate in grid order.
	Workers int

	// Seed perturbs the workload catalogue's iteration-jitter streams
	// and offsets the random-restart seeds; 0 is the canonical
	// configuration. Runs with the same seed are reproducible
	// regardless of Workers.
	Seed int64

	// Ctx cancels in-flight experiment grids (nil = Background).
	Ctx context.Context

	// EvalSubset restricts EvalWorkloads to these names (paper order is
	// kept for names in the evaluation set). Empty means the full set.
	// Meant for tests and quick interactive runs.
	EvalSubset []string

	// SnapshotDir enables the content-addressed kernel-boundary prefix
	// cache for grid cells ("" = off): cells whose policy pins a
	// predictable tuple sequence (GTO, SWL, Static-Best, Fixed) restore
	// the deepest shared-prefix snapshot instead of re-simulating those
	// kernels. Results are bit-identical with or without it.
	SnapshotDir string

	// ExtraWorkloads registers additional workloads — typically
	// trace-backed ones from package traceio — in the catalogue. A name
	// colliding with a synthetic workload shadows it (the record/replay
	// comparison case); genuinely new names are appended to the
	// evaluation set, so profile sweeps, tables and figures run over
	// ingested traces unchanged.
	ExtraWorkloads []*sim.Workload
}

func (o Options) withDefaults() Options {
	if o.SMs <= 0 {
		o.SMs = 8
	}
	if o.EvalStepN <= 0 {
		o.EvalStepN = 2
	}
	if o.EvalStepP <= 0 {
		o.EvalStepP = 2
	}
	if o.TrainStepN <= 0 {
		o.TrainStepN = 3
	}
	if o.TrainStepP <= 0 {
		o.TrainStepP = 3
	}
	if o.RandomSeeds <= 0 {
		o.RandomSeeds = 3
	}
	return o
}

// Harness owns the shared state of the experiment suite. All methods
// are safe for concurrent use: profiles, the training dataset and the
// model weights are built at most once behind single-flight caches.
type Harness struct {
	Opt    Options
	Cfg    config.Config
	Params config.PoiseParams
	Cat    *workloads.Catalogue

	store     profile.Store
	cellStore results.Store
	profiles  runner.Cache[string, *profile.Profile]
	weights   runner.Once[poise.Weights]
	dataset   runner.Once[*poise.Dataset]
	// cells memoises executed experiment grids per grid name; ablated
	// memoises the Fig. 13 retrained models per dropped feature; pools
	// recycles per-configuration GPUs across every grid the harness
	// executes.
	cells   runner.Cache[string, []results.CellResult]
	ablated runner.Cache[int, poise.Weights]
	pools   *sim.PoolSet
	prefix  *sim.PrefixCache

	// extraKernels maps each ExtraWorkloads kernel name to its
	// workload's content digest, so only those kernels' profile-cache
	// keys move when traces are ingested or re-recorded — the synthetic
	// catalogue's cached sweeps stay warm.
	extraKernels map[string]string
}

// NewHarness builds a harness.
func NewHarness(opt Options) *Harness {
	opt = opt.withDefaults()
	cat := workloads.NewCatalogueSeeded(opt.Size, opt.Seed)
	extraKernels := map[string]string{}
	for _, w := range opt.ExtraWorkloads {
		cat.Put(w)
		d := workloadDigest(w)
		for _, k := range w.Kernels {
			extraKernels[k.Name] = d
		}
	}
	h := &Harness{
		Opt:          opt,
		Cfg:          config.Default().Scale(opt.SMs),
		Params:       config.DefaultPoise(),
		Cat:          cat,
		store:        profile.Store{Dir: opt.CacheDir},
		cellStore:    results.Store{Dir: opt.CacheDir},
		pools:        sim.NewPoolSet(),
		extraKernels: extraKernels,
	}
	if opt.SnapshotDir != "" {
		// An unopenable snapshot directory only disables warm starts;
		// every cell still simulates correctly without the cache.
		h.prefix, _ = sim.NewPrefixCache(opt.SnapshotDir)
	}
	return h
}

// PrefixCache returns the harness's kernel-boundary prefix cache (nil
// when Options.SnapshotDir is unset).
func (h *Harness) PrefixCache() *sim.PrefixCache { return h.prefix }

// ctx returns the harness's cancellation context.
func (h *Harness) ctx() context.Context {
	if h.Opt.Ctx != nil {
		return h.Opt.Ctx
	}
	return context.Background()
}

// Workers returns the effective worker count of the harness's
// execution engine.
func (h *Harness) Workers() int { return runner.NumWorkers(h.Opt.Workers) }

// narrowWorkers bounds an outer fan-out whose tasks each run
// Workers-wide profile sweeps inside: two lanes overlap one sweep's
// sequential baseline with another's tail without multiplying into
// Workers^2 concurrent GPUs.
func (h *Harness) narrowWorkers() int {
	if w := runner.NumWorkers(h.Opt.Workers); w < 2 {
		return w
	}
	return 2
}

// sweepOptions assembles the profile sweep options for the eval or
// train grid, threading the worker pool and cancellation through.
func (h *Harness) sweepOptions(train bool) profile.SweepOptions {
	o := profile.SweepOptions{
		StepN: h.Opt.EvalStepN, StepP: h.Opt.EvalStepP,
		Workers: h.Opt.Workers, Ctx: h.Opt.Ctx,
	}
	if train {
		o.StepN, o.StepP = h.Opt.TrainStepN, h.Opt.TrainStepP
	}
	if h.Opt.Prune {
		o.Refine = h.refineOptions(train)
	}
	return o
}

// refineOptions is the harness's refinement configuration: defaults,
// ranked with the harness's Eq. 12 weights. BuildDataset passes these
// options through to the store, so the training sweeps prune exactly
// like the evaluation sweeps do — except that training skips the SWL
// diagonal front: the dataset's targets consume only the scored
// optimum and the baseline, never BestDiagonal, so the diagonal climb
// is grid points for nothing there.
func (h *Harness) refineOptions(train bool) *profile.RefineOptions {
	return &profile.RefineOptions{
		W0: h.Params.ScoreW0, W1: h.Params.ScoreW1, W2: h.Params.ScoreW2,
		SkipDiagonal: train,
	}
}

// tag digests the parts of the configuration that change profiles, so
// the on-disk cache never serves stale sweeps. Worker count is
// deliberately excluded: parallelism never changes results.
func (h *Harness) tag(train bool) string { return h.tagMode(train, h.Opt.Prune) }

// tagMode is tag with the pruning mode explicit, so the exhaustive
// sweeps a pruned harness still needs (KernelProfileFull) key into
// the same cache entries an unpruned run would produce.
func (h *Harness) tagMode(train, prune bool) string {
	s := fmt.Sprintf("sms%d-size%d-l1%d-%v", h.Opt.SMs, h.Opt.Size,
		h.Cfg.L1.SizeBytes, h.Cfg.L1.Index)
	if train {
		s += fmt.Sprintf("-t%d.%d", h.Opt.TrainStepN, h.Opt.TrainStepP)
	} else {
		s += fmt.Sprintf("-e%d.%d", h.Opt.EvalStepN, h.Opt.EvalStepP)
	}
	if h.Opt.Seed != 0 {
		s += fmt.Sprintf("-seed%d", h.Opt.Seed)
	}
	if prune {
		// Pruned profiles carry a subset of the grid, and which subset
		// depends on every refinement parameter: never let pruned
		// entries collide with exhaustive ones or with a campaign
		// refined under different parameters (the train grid skips the
		// diagonal front, so its Tag differs from eval's).
		s += "-prune" + h.refineOptions(train).Tag()
	}
	if train {
		// The training pipeline sweeps Cat.TrainingSet() under this one
		// tag, so a trace shadowing a training workload must move it;
		// eval kernels are keyed individually (see profileTag).
		training := map[string]bool{}
		for _, n := range workloads.TrainingNames() {
			training[n] = true
		}
		for _, w := range h.Opt.ExtraWorkloads {
			if training[w.Name] {
				s += "-x" + workloadDigest(w)
			}
		}
	}
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:6])
}

// profileTag is the per-kernel profile-cache key: the configuration
// tag, plus — for kernels of ingested (extra) workloads — the
// workload's content digest. Shadowed or re-recorded traces can never
// be served stale sweeps, while the synthetic catalogue's cache stays
// warm whatever traces come and go.
func (h *Harness) profileTag(kernel string) string {
	return h.profileTagMode(kernel, h.Opt.Prune)
}

func (h *Harness) profileTagMode(kernel string, prune bool) string {
	t := h.tagMode(false, prune)
	if d, ok := h.extraKernels[kernel]; ok {
		t += "-" + d
	}
	return t
}

// workloadDigest fingerprints a workload by composing its kernels'
// content digests (gridplan.KernelDigest: structure, per-warp
// iteration counts, sampled pattern addresses — cheap, yet it moves
// whenever a trace is re-recorded). The same per-kernel digest
// authenticates sweep-plan tasks, so the cache tags and the shard
// protocol can never disagree about what a kernel's content is.
func workloadDigest(w *sim.Workload) string {
	d := sha256.New()
	fmt.Fprintf(d, "%s/%d", w.Name, len(w.Kernels))
	for _, k := range w.Kernels {
		fmt.Fprintf(d, "|%s", gridplan.KernelDigest(k))
	}
	return hex.EncodeToString(d.Sum(nil)[:8])
}

// KernelProfile sweeps (or loads) the profile of one kernel at the
// evaluation grid. Concurrent calls for the same kernel share one
// sweep.
func (h *Harness) KernelProfile(k *trace.Kernel) (*profile.Profile, error) {
	return h.profiles.Get(k.Name, func() (*profile.Profile, error) {
		return h.store.LoadOrSweep(h.profileTag(k.Name), h.Cfg, k, h.sweepOptions(false))
	})
}

// KernelProfileFull sweeps (or loads) the exhaustive profile of one
// kernel regardless of Options.Prune. The solution-space figures
// (Fig. 2's scatter/curves and PCAL walk, Fig. 17's case-study
// rendering) consume the whole grid, which a pruned subset cannot
// serve — they must look identical with and without -prune. Entries
// key under the unpruned tag, so they share the cache with ordinary
// exhaustive runs.
func (h *Harness) KernelProfileFull(k *trace.Kernel) (*profile.Profile, error) {
	if !h.Opt.Prune {
		return h.KernelProfile(k)
	}
	return h.profiles.Get("full|"+k.Name, func() (*profile.Profile, error) {
		opts := h.sweepOptions(false)
		opts.Refine = nil
		return h.store.LoadOrSweep(h.profileTagMode(k.Name, false), h.Cfg, k, opts)
	})
}

// WorkloadProfiles returns per-kernel profiles for a set of workloads,
// sweeping distinct kernels concurrently.
func (h *Harness) WorkloadProfiles(ws []*sim.Workload) (map[string]*profile.Profile, error) {
	kernels := sim.DistinctKernels(ws)
	// Each sweep already parallelises its own grid points across the
	// full pool, so the outer kernel level stays narrow (two lanes just
	// to overlap one sweep's sequential baseline run with another's
	// tail) — a wide outer map would multiply into Workers^2 concurrent
	// GPUs. The shared profile cache single-flights duplicate names.
	prs, err := runner.MapSlice(h.ctx(), h.narrowWorkers(), kernels,
		func(_ context.Context, _ int, k *trace.Kernel) (*profile.Profile, error) {
			pr, err := h.KernelProfile(k)
			if err != nil {
				return nil, fmt.Errorf("experiments: profiling %s: %w", k.Name, err)
			}
			return pr, nil
		})
	if err != nil {
		return nil, err
	}
	out := map[string]*profile.Profile{}
	for i, k := range kernels {
		out[k.Name] = prs[i]
	}
	return out, nil
}

// Dataset builds (once) the training dataset from the training
// workloads.
func (h *Harness) Dataset() (*poise.Dataset, error) {
	return h.dataset.Do(func() (*poise.Dataset, error) {
		return poise.BuildDataset(h.Cfg, h.Params, h.Cat.TrainingSet(),
			h.sweepOptions(true), h.store, h.tag(true))
	})
}

// ModelWeights returns the weights used by the Poise policy: the
// explicit override, the embedded defaults, or a fresh training run —
// in that order.
func (h *Harness) ModelWeights() (poise.Weights, error) {
	return h.weights.Do(func() (poise.Weights, error) {
		if h.Opt.Weights != nil {
			return *h.Opt.Weights, nil
		}
		if w, ok := poise.DefaultWeights(); ok {
			return w, nil
		}
		ds, err := h.Dataset()
		if err != nil {
			return poise.Weights{}, err
		}
		return poise.Train(ds, poise.TrainOptions{Drop: -1})
	})
}

// PoisePolicy builds a fresh Poise policy (per workload run — the
// displacement statistics are per-policy-instance).
func (h *Harness) PoisePolicy() (*poise.Policy, error) {
	w, err := h.ModelWeights()
	if err != nil {
		return nil, err
	}
	return poise.NewPolicy(h.Params, w), nil
}

// RunWorkload executes one workload under one policy.
func (h *Harness) RunWorkload(w *sim.Workload, p sim.Policy) (sim.WorkloadResult, error) {
	return sim.RunWorkload(h.Cfg, w, p, sim.RunOptions{})
}

// EvalWorkloads returns the evaluation set (paper order) followed by
// any extra (trace-backed) workloads whose names are not already in
// it, or the configured subset.
func (h *Harness) EvalWorkloads() []*sim.Workload {
	if len(h.Opt.EvalSubset) > 0 {
		out := make([]*sim.Workload, 0, len(h.Opt.EvalSubset))
		for _, name := range h.Opt.EvalSubset {
			out = append(out, h.Cat.Must(name))
		}
		return out
	}
	out := h.Cat.EvalSet()
	// Only genuinely new names join the evaluation set; an extra that
	// shadows any catalogue workload — training and compute-intensive
	// ones included — replaces it in place without changing set
	// membership.
	known := map[string]bool{}
	for _, names := range [][]string{workloads.TrainingNames(), workloads.EvalNames(), workloads.ComputeNames()} {
		for _, n := range names {
			known[n] = true
		}
	}
	for _, w := range h.Opt.ExtraWorkloads {
		if !known[w.Name] {
			known[w.Name] = true
			out = append(out, h.Cat.Must(w.Name))
		}
	}
	return out
}

// sortedNames returns map keys in stable order (tables must be
// deterministic).
func sortedNames[T any](m map[string]T) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
