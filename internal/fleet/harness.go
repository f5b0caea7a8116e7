package fleet

import (
	"fmt"
	"sort"

	"poise/internal/experiments"
	"poise/internal/gridplan"
	"poise/internal/trace"
)

// HarnessExecutors returns the executors that run an experiment
// harness's campaigns: profile tasks over the evaluation kernels at the
// evaluation grid, and the harness's experiment cells. Served workers
// and static lease workers register the same map.
func HarnessExecutors(h *experiments.Harness) map[string]Executor {
	return map[string]Executor{
		gridplan.ProfilePlanFormat: ProfileExecutor{
			Cfg: h.Cfg, Kernels: h.EvalKernels(), Opts: h.EvalSweepOptions(),
		},
		gridplan.CellPlanFormat: CellExecutor{H: h},
	}
}

// HarnessCampaign builds the campaign for one experiment grid of the
// harness, or for its evaluation profile sweeps when grid is "" — run
// as staged refinement rounds when the harness prunes. save stores the
// completed campaign's results in the harness's caches, where figure
// runs load them instead of simulating, and returns a one-line
// summary.
func HarnessCampaign(h *experiments.Harness, grid string) (camp Campaign, save func([]Result) (string, error), err error) {
	if grid != "" {
		plan, err := h.CellPlan(grid)
		if err != nil {
			return nil, nil, err
		}
		if len(plan.Cells) == 0 {
			return nil, nil, fmt.Errorf("fleet: grid %s enumerated no cells", grid)
		}
		save := func(res []Result) (string, error) {
			_, g, n, err := SaveCells(h.CellStore(), res)
			return fmt.Sprintf("merged %d cells of grid %s into the cache", n, g), err
		}
		return CellCampaign{Plan: plan}, save, nil
	}
	if h.Opt.Prune {
		camp, err := NewRefineCampaign(h.Cfg, evalKernelList(h), h.ProfileTags(),
			h.EvalSweepOptions(), h.ProfileStore())
		if err != nil {
			return nil, nil, err
		}
		save := func([]Result) (string, error) {
			names, err := camp.SaveTo(h.ProfileStore())
			return fmt.Sprintf("assembled %d pruned profiles into the cache", len(names)), err
		}
		return camp, save, nil
	}
	plan, err := h.EvalPlan()
	if err != nil {
		return nil, nil, err
	}
	save = func(res []Result) (string, error) {
		names, err := SaveProfiles(h.ProfileStore(), res)
		return fmt.Sprintf("merged %d kernel profiles into the cache", len(names)), err
	}
	return ProfileCampaign{Plan: plan}, save, nil
}

// evalKernelList flattens the evaluation kernel index in name order —
// campaigns iterate it, so the order must be deterministic.
func evalKernelList(h *experiments.Harness) []*trace.Kernel {
	idx := h.EvalKernels()
	names := make([]string, 0, len(idx))
	for name := range idx {
		names = append(names, name)
	}
	sort.Strings(names)
	kernels := make([]*trace.Kernel, len(names))
	for i, name := range names {
		kernels[i] = idx[name]
	}
	return kernels
}
