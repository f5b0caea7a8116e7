package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"

	"poise/internal/config"
	"poise/internal/experiments"
	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/trace"
)

// ProfileExecutor runs profile sweep tasks against a local kernel
// catalogue via profile.RunTasks — the executor of served and static
// leases alike, so a task's measurement bytes do not depend on which
// process ran it.
type ProfileExecutor struct {
	Cfg     config.Config
	Kernels map[string]*trace.Kernel
	Opts    profile.SweepOptions
}

// Prepare implements Executor: it decodes the plan and fail-fasts on
// any task whose kernel is missing from this worker's catalogue or
// whose content digest disagrees with the local traces — a worker
// launched against the wrong trace set refuses the whole plan before
// leasing anything.
func (e ProfileExecutor) Prepare(planData []byte) (Batch, error) {
	plan, err := gridplan.ReadPlan(bytes.NewReader(planData))
	if err != nil {
		return nil, err
	}
	digests := map[string]string{}
	for _, t := range plan.Tasks {
		k, ok := e.Kernels[t.Kernel]
		if !ok {
			return nil, fmt.Errorf("fleet: plan task %s: kernel not in local catalogue", t.Key())
		}
		d, ok := digests[t.Kernel]
		if !ok {
			d = gridplan.KernelDigest(k)
			digests[t.Kernel] = d
		}
		if t.Digest != "" && t.Digest != d {
			return nil, fmt.Errorf("fleet: plan task %s: kernel digest mismatch: plan has %s, local traces have %s", t.Key(), t.Digest, d)
		}
	}
	return profileBatch{e}, nil
}

type profileBatch struct{ e ProfileExecutor }

// Run implements Batch.
func (b profileBatch) Run(lines []json.RawMessage) ([]json.RawMessage, error) {
	tasks := make([]gridplan.Task, len(lines))
	for i, l := range lines {
		if err := json.Unmarshal(l, &tasks[i]); err != nil {
			return nil, fmt.Errorf("fleet: task line %d: %w", i+1, err)
		}
	}
	ms, err := profile.RunTasks(b.e.Cfg, b.e.Kernels, tasks, b.e.Opts)
	if err != nil {
		return nil, err
	}
	out := make([]json.RawMessage, len(ms))
	for i, m := range ms {
		raw, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		out[i] = raw
	}
	return out, nil
}

// CellExecutor runs experiment-grid cells through a local harness's
// RunCellTasks.
type CellExecutor struct {
	H *experiments.Harness
}

// Prepare implements Executor: the plan must be a single grid's cells,
// and the harness's whole-plan validation (tag, ordinals, digests)
// must accept it.
func (e CellExecutor) Prepare(planData []byte) (Batch, error) {
	plan, err := gridplan.ReadCellPlan(bytes.NewReader(planData))
	if err != nil {
		return nil, err
	}
	if len(plan.Cells) == 0 {
		return nil, fmt.Errorf("fleet: cell plan is empty")
	}
	grid := plan.Cells[0].Grid
	for _, c := range plan.Cells {
		if c.Grid != grid {
			return nil, fmt.Errorf("fleet: cell plan mixes grids %s and %s", grid, c.Grid)
		}
	}
	if err := e.H.ValidateCellPlan(grid, plan); err != nil {
		return nil, err
	}
	return cellBatch{e.H, grid}, nil
}

type cellBatch struct {
	h    *experiments.Harness
	grid string
}

// Run implements Batch.
func (b cellBatch) Run(lines []json.RawMessage) ([]json.RawMessage, error) {
	tasks := make([]gridplan.CellTask, len(lines))
	for i, l := range lines {
		if err := json.Unmarshal(l, &tasks[i]); err != nil {
			return nil, fmt.Errorf("fleet: cell line %d: %w", i+1, err)
		}
	}
	cells, err := b.h.RunCellTasks(b.grid, tasks)
	if err != nil {
		return nil, err
	}
	out := make([]json.RawMessage, len(cells))
	for i, c := range cells {
		raw, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		out[i] = raw
	}
	return out, nil
}
