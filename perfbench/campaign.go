package main

import (
	"fmt"
	"os"
	"path/filepath"

	"poise/internal/config"
	"poise/internal/experiments"
	"poise/internal/profile"
	"poise/internal/sim"
	"poise/internal/trace"
	"poise/internal/traceio"
	"poise/internal/workloads"
)

// campaignDef: a pruned profile campaign plus the scheme grid, with
// the prefix cache on and a fresh cache directory per pass. Hundreds
// of short, reset-heavy simulations go through pruned sweeps, plans,
// GPU pools, prefix snapshots (disk writes) and result stores — the
// orchestration layer and the trace-replay path, used as the long
// single runs never use them.
var campaignDef = workloadDef{
	name: "campaign",
	why:  "pruned profile sweeps and the scheme grid at 8 SMs with the prefix cache, bfs replayed from a recorded trace",
	load: "closed loop, 1 harness worker; fresh profile, cell and snapshot directories every pass; simulated caches start empty at every run",
	setup: func(seed int64, dir string) (instance, error) {
		return newCampaign(seed, dir)
	},
}

// campaignPrograms is the campaign's evaluation subset; the last one
// is replayed from a trace recorded at set-up.
var campaignPrograms = []string{"ii", "mm", "ss", "bfs"}

// campaignShrink divides every campaign kernel's loop iterations, so
// one pass (hundreds of sweep points and twenty grid cells) fits the
// run time. Footprints, launch geometry and access patterns are
// unchanged.
const campaignShrink = 16

const campaignSMs = 8

// campaignStep is the evaluation sweep grid step in N and p.
const campaignStep = 4

type campaign struct {
	seed      int64
	dir       string
	synthetic []*sim.Workload // shrunk ii, mm, ss
	tracePath string          // recorded shrunk bfs
	passes    int
}

func newCampaign(seed int64, dir string) (*campaign, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cat := workloads.NewCatalogueSeeded(workloads.Small, seed)
	c := &campaign{seed: seed, dir: dir}
	for _, name := range campaignPrograms {
		wl, err := cat.Get(name)
		if err != nil {
			return nil, err
		}
		small := shrink(wl, campaignShrink)
		if name != "bfs" {
			c.synthetic = append(c.synthetic, small)
			continue
		}
		tr, err := traceio.Record(small)
		if err != nil {
			return nil, err
		}
		c.tracePath = filepath.Join(dir, "bfs.ptrace.gz")
		if err := traceio.WriteFile(c.tracePath, tr); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// shrink copies w with every kernel's iteration count divided by f.
func shrink(w *sim.Workload, f int) *sim.Workload {
	out := &sim.Workload{Name: w.Name, MemorySensitive: w.MemorySensitive}
	for _, k := range w.Kernels {
		kc := *k
		kc.Iters = max(1, k.Iters/f)
		out.Kernels = append(out.Kernels, &kc)
	}
	return out
}

func (c *campaign) warmup() error {
	k := c.synthetic[0].Kernels[0]
	_, err := sim.RunWorkload(campaignConfig(), &sim.Workload{Name: "warmup", Kernels: []*trace.Kernel{k}},
		sim.GTO{}, sim.RunOptions{})
	return err
}

// campaignConfig is the harness's scaled GPU (experiments.Options.SMs).
func campaignConfig() config.Config { return config.Default().Scale(campaignSMs) }

func (c *campaign) close() error { return nil }

func (c *campaign) pass(sp *spans, g *gate) (passStats, error) {
	dir := filepath.Join(c.dir, fmt.Sprintf("pass%d", c.passes))
	c.passes++
	defer os.RemoveAll(dir)
	watch := startWatch()

	t := sp.begin()
	bfs, err := traceio.LoadWorkloadFile(c.tracePath)
	sp.end("traceio.ingest", t)
	if err != nil {
		return passStats{}, fmt.Errorf("replaying %s: %w", c.tracePath, err)
	}
	h := experiments.NewHarness(experiments.Options{
		SMs:            campaignSMs,
		Size:           workloads.Small,
		CacheDir:       filepath.Join(dir, "cache"),
		SnapshotDir:    filepath.Join(dir, "snap"),
		EvalStepN:      campaignStep,
		EvalStepP:      campaignStep,
		Prune:          true,
		Workers:        1,
		Seed:           c.seed,
		EvalSubset:     campaignPrograms,
		ExtraWorkloads: append(append([]*sim.Workload(nil), c.synthetic...), bfs),
	})

	t = sp.begin()
	profs, err := h.WorkloadProfiles(h.EvalWorkloads())
	sp.end("profile.sweep", t)
	if err != nil {
		return passStats{}, err
	}
	t = sp.begin()
	cells, err := h.GridCells("scheme")
	sp.end("experiments.grid", t)
	if err != nil {
		return passStats{}, err
	}
	wall, cpu := watch.stop()

	// Checks and counters, outside the timed section.
	var agg simCounters
	var points, gridPoints, work float64
	full := h.EvalSweepOptions()
	full.Refine = nil
	for _, name := range sortedKeys(profs) {
		pr := profs[name]
		d, err := profileDigests(pr, h.Params)
		g.check("profile/"+name, profileGroups, d, err)
		points += float64(len(pr.Points))
		work += float64(len(pr.Points)) * float64(pr.BaselineInstr)
		if k, ok := h.EvalKernels()[name]; ok {
			gridPoints += float64(len(profile.BuildPlan("", h.Cfg, k, full).Tasks))
		}
	}
	cycles := map[string]map[string]int64{}
	for _, cell := range cells {
		d, err := cellDigests(cell)
		g.check("cell/"+cell.Workload+"/"+cell.Scheme, simGroups, d, err)
		agg.add(cell.Result)
		work += float64(cell.Result.Instructions)
		if cycles[cell.Workload] == nil {
			cycles[cell.Workload] = map[string]int64{}
		}
		cycles[cell.Workload][cell.Scheme] = cell.Result.Cycles
	}
	var speedups []float64
	for _, byScheme := range cycles {
		if gto, p := byScheme["GTO"], byScheme["Poise"]; gto > 0 && p > 0 {
			speedups = append(speedups, float64(gto)/float64(p))
		}
	}
	ps := passStats{wall: wall, cpu: cpu, work: work, counters: agg.counters()}
	ps.counters["poise.speedup"] = geomean(speedups)
	ps.counters["profile.points"] = points
	ps.counters["profile.grid_fraction"] = ratio(points, gridPoints)
	if pc := h.PrefixCache(); pc != nil {
		ps.counters["prefix.hits"] = float64(pc.Hits.Load())
		ps.counters["prefix.misses"] = float64(pc.Misses.Load())
		ps.counters["prefix.cycles_saved_ratio"] = ratio(float64(pc.CyclesSaved.Load()), float64(agg.cycles))
	}
	return ps, nil
}
