package main

import (
	"fmt"

	"poise/internal/config"
	"poise/internal/poise"
	"poise/internal/sim"
	"poise/internal/workloads"
)

// evalMemDef: memory-bound programs at the ROADMAP's 32-SM baseline.
// Low IPC exercises the engine heaps, issue rescans, L1/MSHR, NoC,
// DRAM and the HIE at once; the set mixes multi- and single-kernel
// programs, intra- and inter-warp reuse, and a mid-kernel phase change
// (syrk).
var evalMemDef = workloadDef{
	name: "eval-mem",
	why:  "memory-bound eval programs at 32 SMs under GTO and Poise: engine heaps, issue, L1/MSHR, NoC, DRAM and HIE all busy",
	load: simLoad,
	setup: func(seed int64, dir string) (instance, error) {
		return newSimInstance(seed, workloads.Small, []string{"ii", "mm", "bfs", "kmeans", "mvt", "syrk"})
	},
}

// computeDef: compute-bound programs keep the engine and issue path
// busy while the memory layers idle (L2 accesses are about 0.1% of
// instructions), so a memory-layer change should not move it; it also
// checks that Poise costs nothing on compute-bound kernels (Fig. 16).
var computeDef = workloadDef{
	name: "compute",
	why:  "compute-bound programs at 32 SMs under GTO and Poise: engine and issue busy, memory layers idle",
	load: simLoad,
	setup: func(seed int64, dir string) (instance, error) {
		return newSimInstance(seed, workloads.Medium, workloads.ComputeNames())
	},
}

const simLoad = "closed loop, 1 simulation worker; simulated caches start empty at every run, L2 stays warm only across one program's kernels"

// simInstance runs each program under GTO and Poise on a fresh GPU per
// run (caches start empty; L2 stays warm only across one program's
// kernels, as sim.RunWorkload does), with the tuple log on.
type simInstance struct {
	cfg     config.Config
	params  config.PoiseParams
	weights poise.Weights
	progs   []*sim.Workload
}

func newSimInstance(seed int64, size workloads.Size, names []string) (*simInstance, error) {
	w, ok := poise.DefaultWeights()
	if !ok {
		return nil, fmt.Errorf("no embedded Poise weights")
	}
	cat := workloads.NewCatalogueSeeded(size, seed)
	in := &simInstance{cfg: config.Default(), params: config.DefaultPoise(), weights: w}
	for _, n := range names {
		wl, err := cat.Get(n)
		if err != nil {
			return nil, err
		}
		if err := wl.Validate(); err != nil {
			return nil, err
		}
		in.progs = append(in.progs, wl)
	}
	return in, nil
}

// warmup runs the smallest kernel of the first program once.
func (in *simInstance) warmup() error {
	first := &sim.Workload{Name: "warmup", Kernels: in.progs[0].Kernels[:1]}
	_, err := sim.RunWorkload(in.cfg, first, sim.GTO{}, sim.RunOptions{})
	return err
}

func (in *simInstance) close() error { return nil }

func (in *simInstance) pass(sp *spans, g *gate) (passStats, error) {
	var agg simCounters
	var speedups []float64
	watch := startWatch()
	for _, wl := range in.progs {
		var gtoCycles int64
		for _, scheme := range []string{"GTO", "Poise"} {
			var pol sim.Policy = sim.GTO{}
			if scheme == "Poise" {
				pol = poise.NewPolicy(in.params, in.weights)
			}
			t := sp.begin()
			res, err := runTraced(in.cfg, wl, pol)
			sp.end("sim.run", t)
			item := wl.Name + "/" + scheme
			if err != nil {
				g.check(item, simGroups, nil, err)
				continue
			}
			d, err := resultDigests(res, nil)
			g.check(item, simGroups, d, err)
			agg.add(res)
			if scheme == "GTO" {
				gtoCycles = res.Cycles
			} else if gtoCycles > 0 && res.Cycles > 0 {
				speedups = append(speedups, float64(gtoCycles)/float64(res.Cycles))
			}
		}
	}
	wall, cpu := watch.stop()
	ps := passStats{wall: wall, cpu: cpu, work: float64(agg.instructions)}
	ps.counters = agg.counters()
	ps.counters["poise.speedup"] = geomean(speedups)
	return ps, nil
}

// runTraced runs wl on a fresh GPU, as sim.RunWorkload does, with the
// tuple log on so results carry every warp-tuple change.
func runTraced(cfg config.Config, wl *sim.Workload, pol sim.Policy) (sim.WorkloadResult, error) {
	g, err := sim.New(cfg)
	if err != nil {
		return sim.WorkloadResult{}, err
	}
	g.TraceTuples = true
	return g.RunWorkload(wl, pol, sim.RunOptions{})
}

// simCounters sums the counters the simulator's result types expose.
type simCounters struct {
	cycles, instructions, replays, loads   int64
	l1Acc, l1Hits, l1Bypass, l2Acc, l2Hits int64
	flits, dram, tupleChanges              int64
}

func (c *simCounters) add(r sim.WorkloadResult) {
	c.cycles += r.Cycles
	c.instructions += r.Instructions
	c.l1Acc += r.L1.Accesses
	c.l1Hits += r.L1.Hits
	c.l1Bypass += r.L1.Bypasses
	c.l2Acc += r.L2Acc
	c.l2Hits += r.L2Hits
	c.flits += r.NoCReqFlits + r.NoCRespFlits
	c.dram += r.DRAMAcc
	for _, k := range r.PerKernel {
		c.tupleChanges += int64(len(k.TupleLog))
		for _, s := range k.PerSM {
			c.replays += s.Replays
			c.loads += s.Loads
		}
	}
}

func (c *simCounters) counters() map[string]float64 {
	return map[string]float64{
		"sim.cycles":          float64(c.cycles),
		"sim.instructions":    float64(c.instructions),
		"sm.replays":          float64(c.replays),
		"sm.replay_per_load":  ratio(float64(c.replays), float64(c.loads)),
		"l1.accesses":         float64(c.l1Acc),
		"l1.hit_rate":         ratio(float64(c.l1Hits), float64(c.l1Acc)),
		"l1.bypasses":         float64(c.l1Bypass),
		"l2.accesses":         float64(c.l2Acc),
		"l2.hit_rate":         ratio(float64(c.l2Hits), float64(c.l2Acc)),
		"l2.per_kinst":        ratio(1000*float64(c.l2Acc), float64(c.instructions)),
		"noc.flits":           float64(c.flits),
		"dram.accesses":       float64(c.dram),
		"poise.tuple_changes": float64(c.tupleChanges),
	}
}
