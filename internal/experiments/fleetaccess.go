package experiments

import (
	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/results"
	"poise/internal/sim"
	"poise/internal/trace"
)

// Accessors for fleet campaigns (package fleet: served leases and
// static lease files alike): a campaign over the harness's evaluation
// sweep needs the plan, the kernel set, the per-kernel profile-cache
// tags, the sweep options and the stores, without reaching into
// harness internals. The offline {N, p} sweeps are the wall-clock-
// dominating step of the evaluation, which is why they are a
// serialisable plan any number of processes can split.

// EvalPlan enumerates the full profile sweep plan of the evaluation
// set: every distinct kernel's grid at the evaluation resolution, each
// task tagged with the kernel's profile-cache key and content digest.
func (h *Harness) EvalPlan() (*gridplan.Plan, error) {
	plan := &gridplan.Plan{Version: gridplan.PlanVersion}
	for _, k := range sim.DistinctKernels(h.EvalWorkloads()) {
		kp := profile.BuildPlan(h.profileTag(k.Name), h.Cfg, k, h.sweepOptions(false))
		plan.Tasks = append(plan.Tasks, kp.Tasks...)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// kernelIndex maps every evaluation kernel name to its kernel.
func (h *Harness) kernelIndex() map[string]*trace.Kernel {
	idx := map[string]*trace.Kernel{}
	for _, k := range sim.DistinctKernels(h.EvalWorkloads()) {
		idx[k.Name] = k
	}
	return idx
}

// EvalKernels returns the evaluation kernel index (every kernel of
// every evaluation workload, by name).
func (h *Harness) EvalKernels() map[string]*trace.Kernel { return h.kernelIndex() }

// ProfileTags maps each evaluation kernel to its profile-cache tag.
func (h *Harness) ProfileTags() map[string]string {
	tags := map[string]string{}
	for name := range h.kernelIndex() {
		tags[name] = h.profileTag(name)
	}
	return tags
}

// EvalSweepOptions returns the evaluation-grid sweep options,
// including the refinement parameters when the harness prunes.
func (h *Harness) EvalSweepOptions() profile.SweepOptions { return h.sweepOptions(false) }

// ProfileStore returns the harness's profile cache store.
func (h *Harness) ProfileStore() profile.Store { return h.store }

// CellStore returns the harness's experiment-cell cache store.
func (h *Harness) CellStore() results.Store { return h.cellStore }
