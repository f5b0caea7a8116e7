// Package profile runs offline {N, p} solution-space sweeps — the
// static profiling step that SWL, PCAL-SWL and Static-Best rely on in
// the paper's evaluation, and the data source for Poise's training
// targets. A Profile stores the speedup of one kernel at every swept
// warp-tuple, normalised to the GTO baseline at maximum warps.
package profile

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"poise/internal/atomicfile"
	"poise/internal/config"
	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/trace"
)

// Point is one profiled warp-tuple.
type Point struct {
	N, P    int
	IPC     float64
	Speedup float64 // IPC / baseline IPC
	HitRate float64
	AML     float64
}

// Profile is the solution-space map of one kernel.
type Profile struct {
	Kernel   string
	MaxN     int     // per-scheduler warp bound during the sweep
	Baseline Point   // the (MaxN, MaxN) GTO point
	Points   []Point // all swept points (includes the baseline tuple)

	// BaselineFeatures carries aggregate kernel statistics sampled at
	// the baseline run, used by the training pipeline.
	BaselineCycles int64
	BaselineInstr  int64

	// index maps (N, P) to the point's position in Points, so
	// BestScore's 9-neighbour probes are O(1) per point instead of a
	// linear scan. It is built eagerly wherever profiles are
	// constructed for consumers (MergeShards, Store.Load) — never
	// lazily, so two profiles with the same points always compare
	// reflect.DeepEqual regardless of how many queries either has
	// served. It is unexported and rebuilt after JSON decoding, so
	// serialised profiles are byte-identical to the pre-index format.
	// Hand-assembled profiles (tests, synthetic fixtures) may leave it
	// nil: Lookup falls back to the linear scan. Points must not grow
	// after buildIndex (mutating a point's metrics in place is fine —
	// the index only keys coordinates).
	index map[[2]int]int
}

// Lookup returns the point at (n, p) and whether it was swept.
func (pr *Profile) Lookup(n, p int) (Point, bool) {
	if pr.index != nil {
		if i, ok := pr.index[[2]int{n, p}]; ok {
			return pr.Points[i], true
		}
		return Point{}, false
	}
	for _, pt := range pr.Points {
		if pt.N == n && pt.P == p {
			return pt, true
		}
	}
	return Point{}, false
}

// buildIndex indexes Points by coordinate; the first occurrence wins,
// matching what the linear scan used to return for (malformed)
// profiles with duplicate tuples.
func (pr *Profile) buildIndex() {
	pr.index = make(map[[2]int]int, len(pr.Points))
	for i, pt := range pr.Points {
		key := [2]int{pt.N, pt.P}
		if _, dup := pr.index[key]; !dup {
			pr.index[key] = i
		}
	}
}

// Best returns the highest-speedup point.
func (pr *Profile) Best() Point {
	best := pr.Baseline
	for _, pt := range pr.Points {
		if pt.Speedup > best.Speedup {
			best = pt
		}
	}
	return best
}

// BestDiagonal returns the best point with p == N — the reach of SWL
// (static CCWS), which couples the two knobs.
func (pr *Profile) BestDiagonal() Point {
	best := pr.Baseline
	for _, pt := range pr.Points {
		if pt.N == pt.P && pt.Speedup > best.Speedup {
			best = pt
		}
	}
	return best
}

// Sweep options.
type SweepOptions struct {
	// StepN/StepP control grid resolution (1 = exhaustive). The
	// diagonal p == N is always included at StepN resolution, since the
	// SWL baseline needs it.
	StepN, StepP int
	// MaxCycles guards each run.
	MaxCycles int64
	// Workers bounds the concurrent point simulations (<= 0 means
	// GOMAXPROCS, 1 forces sequential). Every in-flight point runs on
	// its own GPU, so the profile is bit-identical at any worker count.
	Workers int
	// Ctx cancels an in-flight sweep (nil = context.Background()).
	Ctx context.Context
	// FreshGPUs disables the worker-pinned GPU pool and builds a fresh
	// GPU per grid point (the pre-pool behaviour). Results are
	// bit-identical either way — the pool's Reset is verified against
	// fresh construction — so this exists only as a cross-check and for
	// the allocation benchmarks.
	FreshGPUs bool
	// Refine switches sweeps to adaptive coarse-to-fine pruning (see
	// refine.go): LoadOrSweep runs PrunedSweep rounds instead of the
	// exhaustive grid, caching completed rounds for resume. nil means
	// exhaustive. The pruned profile contains only the simulated
	// subset of the grid, so callers that consume more than the
	// Best/BestDiagonal/BestScore optima and the corner points should
	// keep Refine nil.
	Refine *RefineOptions
	// Interrupt, when non-nil, makes the sweep preemptible: a fired
	// control stops in-flight tasks at a safe point with
	// sim.ErrInterrupted (after checkpointing them to Checkpoints, when
	// that is also set). Already-completed task measurements are
	// unaffected.
	Interrupt *sim.InterruptCtl
	// Checkpoints, when non-nil, stores mid-task snapshots keyed by
	// task identity. Before simulating a task, RunTasks probes the
	// store and resumes from a checkpoint instead of starting over —
	// any process pointed at the same directory continues a preempted
	// task bit-identically.
	Checkpoints *snap.Store
}

func (o SweepOptions) withDefaults() SweepOptions {
	if o.StepN <= 0 {
		o.StepN = 1
	}
	if o.StepP <= 0 {
		o.StepP = 1
	}
	return o
}

// Sweep profiles kernel k across the {N, p} space on the given
// configuration. The kernel runs once per grid point; speedups are
// relative to the (max, max) GTO tuple. Points run concurrently on
// opts.Workers goroutines, each in-flight point on its own GPU drawn
// from a reset-verified pool: a kernel run is a pure function of
// (config, kernel, tuple), so the profile is bit-identical at any
// worker count.
//
// Sweep is exactly the one-shard instance of the plan pipeline
// (BuildPlan -> RunTasks -> MergeShards), so a sweep fanned out as
// plan shards across processes merges to the same Profile bit for bit
// — the property TestShardedSweepMatchesInProcess pins down.
func Sweep(cfg config.Config, k *trace.Kernel, opts SweepOptions) (*Profile, error) {
	opts = opts.withDefaults()
	plan := BuildPlan("", cfg, k, opts)
	ms, err := RunTasks(cfg, map[string]*trace.Kernel{k.Name: k}, plan.Tasks, opts)
	if err != nil {
		return nil, err
	}
	return MergeShards(k.Name, ms)
}

// Score implements the paper's Eq. 12 neighbourhood scoring at point
// (a, b): the weighted sum of speedups over the 3x3 neighbourhood,
// normalised by the weights of the neighbours present. Missing
// neighbours (boundary or unswept) are excluded from the normalisation,
// matching the paper's boundary handling.
func (pr *Profile) Score(a, b int, w0, w1, w2 float64) (float64, bool) {
	if _, ok := pr.Lookup(a, b); !ok {
		return 0, false
	}
	weightAt := func(k int) float64 {
		switch k {
		case 0:
			return w0
		case 1:
			return w1
		default:
			return w2
		}
	}
	var sum, norm float64
	for i := -1; i <= 1; i++ {
		for j := -1; j <= 1; j++ {
			pt, ok := pr.Lookup(a+i, b+j)
			if !ok {
				continue
			}
			w := weightAt(abs(i) + abs(j))
			sum += w * pt.Speedup
			norm += w
		}
	}
	if norm == 0 {
		return 0, false
	}
	return sum / norm, true
}

// BestScore returns the point with the highest Eq. 12 score and that
// score. Weights follow Table IV.
func (pr *Profile) BestScore(p config.PoiseParams) (Point, float64) {
	best := pr.Baseline
	bestScore := math.Inf(-1)
	for _, pt := range pr.Points {
		s, ok := pr.Score(pt.N, pt.P, p.ScoreW0, p.ScoreW1, p.ScoreW2)
		if !ok {
			continue
		}
		if s > bestScore {
			bestScore, best = s, pt
		}
	}
	return best, bestScore
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Store caches profiles on disk as JSON, keyed by kernel name and a
// caller-supplied tag (configuration digest), so expensive sweeps run
// once per configuration.
type Store struct {
	Dir string
}

func (s Store) path(tag, kernel string) string {
	return filepath.Join(s.Dir, fmt.Sprintf("%s_%s.json", tag, kernel))
}

// ErrCorrupt tags cache entries that exist but cannot be decoded
// (truncated writes, garbled JSON). Callers distinguish it from
// os.ErrNotExist with errors.Is; LoadOrSweep treats both as "no usable
// cache entry" and re-sweeps.
var ErrCorrupt = errors.New("corrupt profile cache entry")

// Load reads a cached profile; it returns os.ErrNotExist if absent and
// an ErrCorrupt-wrapping error if present but undecodable.
func (s Store) Load(tag, kernel string) (*Profile, error) {
	if s.Dir == "" {
		return nil, os.ErrNotExist
	}
	data, err := os.ReadFile(s.path(tag, kernel))
	if err != nil {
		return nil, err
	}
	var pr Profile
	if err := json.Unmarshal(data, &pr); err != nil {
		return nil, fmt.Errorf("profile: %s: %w (%v)", s.path(tag, kernel), ErrCorrupt, err)
	}
	if pr.Kernel == "" || len(pr.Points) == 0 {
		return nil, fmt.Errorf("profile: %s: %w (decoded to an empty profile)", s.path(tag, kernel), ErrCorrupt)
	}
	pr.buildIndex()
	return &pr, nil
}

// Save writes a profile to the cache. The write is crash-safe: the
// JSON goes to a temporary file in the same directory which is then
// renamed over the entry, so a crash mid-write leaves either the old
// entry or the new one, never a truncated file — the ErrCorrupt
// repair path stays a defence against external damage rather than the
// only thing standing between a crash and a poisoned cache.
func (s Store) Save(tag string, pr *Profile) error {
	if s.Dir == "" {
		return errors.New("profile: store has no directory")
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(pr, "", " ")
	if err != nil {
		return err
	}
	if err := atomicfile.WriteFile(s.path(tag, pr.Kernel), data, 0o644); err != nil {
		return fmt.Errorf("profile: saving %s: %w", s.path(tag, pr.Kernel), err)
	}
	return nil
}

// LoadOrSweep returns the cached profile or runs the sweep and caches
// it. A corrupt cache entry (ErrCorrupt) is treated like a miss: the
// sweep re-runs and Save overwrites the damaged file, so a truncated
// write from a crashed run can never abort later runs. With
// opts.Refine set the sweep is the adaptive pruned one, resuming from
// any cached refinement rounds (see refine.go); callers key pruned
// and exhaustive campaigns under different tags, since the cached
// profiles differ in which grid points they carry.
func (s Store) LoadOrSweep(tag string, cfg config.Config, k *trace.Kernel, opts SweepOptions) (*Profile, error) {
	if pr, err := s.Load(tag, k.Name); err == nil {
		return pr, nil
	}
	if opts.Refine != nil {
		return s.loadOrPrunedSweep(tag, cfg, k, opts)
	}
	pr, err := Sweep(cfg, k, opts)
	if err != nil {
		return nil, err
	}
	if s.Dir != "" {
		if err := s.Save(tag, pr); err != nil {
			return nil, err
		}
	}
	return pr, nil
}
