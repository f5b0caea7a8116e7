package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"

	"poise/internal/config"
	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/results"
	"poise/internal/trace"
)

// Result is one accepted task result: the task's gridplan key and the
// executor's serialised record (a gridplan.Measurement or a
// results.CellResult, per the campaign's format).
type Result struct {
	Key  string
	Data json.RawMessage
}

// A Campaign feeds the coordinator plan generations. Next(0, nil) is
// the first call; each later call receives the previous generation's
// complete, key-ordered results and returns the next plan — its
// serialised JSONL (what workers fetch from /v1/plan), its leasable
// units, or done. Next is called under the coordinator's mutex and
// must not simulate; building the next refinement round from merged
// measurements is pure and cheap, which is exactly why staged pruning
// fits this interface.
type Campaign interface {
	// Format is the plan file format workers dispatch executors on
	// (gridplan.ProfilePlanFormat or gridplan.CellPlanFormat).
	Format() string
	Next(gen int, prev []Result) (planData []byte, units []unit, done bool, err error)
}

// planUnits serialises a profile plan and its per-task lease units.
func planUnits(p *gridplan.Plan) ([]byte, []unit, error) {
	p.Sort()
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := gridplan.WritePlan(&buf, p); err != nil {
		return nil, nil, err
	}
	units := make([]unit, len(p.Tasks))
	for i, t := range p.Tasks {
		line, err := json.Marshal(t)
		if err != nil {
			return nil, nil, err
		}
		units[i] = unit{key: t.Key(), line: line}
	}
	return buf.Bytes(), units, nil
}

// cellPlanUnits serialises a cell plan and its per-cell lease units.
func cellPlanUnits(p *gridplan.CellPlan) ([]byte, []unit, error) {
	p.Sort()
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := gridplan.WriteCellPlan(&buf, p); err != nil {
		return nil, nil, err
	}
	units := make([]unit, len(p.Cells))
	for i, c := range p.Cells {
		line, err := json.Marshal(c)
		if err != nil {
			return nil, nil, err
		}
		units[i] = unit{key: c.Key(), line: line}
	}
	return buf.Bytes(), units, nil
}

// ProfileCampaign serves one profile sweep plan as a single
// generation.
type ProfileCampaign struct{ Plan *gridplan.Plan }

// Format implements Campaign.
func (c ProfileCampaign) Format() string { return gridplan.ProfilePlanFormat }

// Next implements Campaign.
func (c ProfileCampaign) Next(gen int, prev []Result) ([]byte, []unit, bool, error) {
	if gen > 0 {
		return nil, nil, true, nil
	}
	data, units, err := planUnits(c.Plan)
	return data, units, false, err
}

// CellCampaign serves one experiment-grid cell plan as a single
// generation.
type CellCampaign struct{ Plan *gridplan.CellPlan }

// Format implements Campaign.
func (c CellCampaign) Format() string { return gridplan.CellPlanFormat }

// Next implements Campaign.
func (c CellCampaign) Next(gen int, prev []Result) ([]byte, []unit, bool, error) {
	if gen > 0 {
		return nil, nil, true, nil
	}
	data, units, err := cellPlanUnits(c.Plan)
	return data, units, false, err
}

// RefineCampaign drives a staged pruned sweep: each generation is one
// refinement round across every unconverged kernel, and the next
// round's plan is a pure function of the measurements merged so far —
// the same BuildRefinePlan profile.PrunedSweep uses, so the fleet's
// rounds are the rounds a single process would run.
type RefineCampaign struct {
	cfg   config.Config
	opts  profile.SweepOptions
	store profile.Store // optional round persistence ("" disables)

	kernels []*trace.Kernel
	states  map[string]*refineState
}

type refineState struct {
	tag    string
	round  int
	prior  []gridplan.Measurement
	done   bool
	active bool // had tasks in the generation in flight
}

// NewRefineCampaign builds a refinement campaign over the given
// kernels. tags maps each kernel name to its profile-cache tag (the
// standalone flow uses one tag for all kernels; the harness flow keys
// per kernel). When store has a directory, completed rounds persist
// there (profile.Store.SaveRound) and any rounds already cached —
// e.g. from an interrupted earlier campaign with identical
// parameters — are resumed instead of re-simulated.
func NewRefineCampaign(cfg config.Config, kernels []*trace.Kernel, tags map[string]string,
	opts profile.SweepOptions, store profile.Store) (*RefineCampaign, error) {
	c := &RefineCampaign{
		cfg: cfg, opts: opts, store: store,
		kernels: kernels,
		states:  make(map[string]*refineState, len(kernels)),
	}
	for _, k := range kernels {
		tag, ok := tags[k.Name]
		if !ok {
			return nil, fmt.Errorf("fleet: refine campaign: no tag for kernel %q", k.Name)
		}
		st := &refineState{tag: tag}
		if store.Dir != "" {
			rounds := store.LoadRounds(tag, k.Name)
			prior, err := gridplan.Merge(rounds...)
			if err != nil {
				return nil, fmt.Errorf("fleet: cached rounds for %s: %w", k.Name, err)
			}
			st.round, st.prior = len(rounds), prior
		}
		c.states[k.Name] = st
	}
	return c, nil
}

// Format implements Campaign.
func (c *RefineCampaign) Format() string { return gridplan.ProfilePlanFormat }

// Next implements Campaign: fold the previous round's measurements
// into each active kernel's prior (persisting the round when a store
// is configured), then assemble the next round's plan across every
// unconverged kernel.
func (c *RefineCampaign) Next(gen int, prev []Result) ([]byte, []unit, bool, error) {
	if gen > 0 {
		if err := c.fold(prev); err != nil {
			return nil, nil, false, err
		}
	}
	plan := &gridplan.Plan{Version: gridplan.PlanVersion}
	for _, k := range c.kernels {
		st := c.states[k.Name]
		st.active = false
		if st.done {
			continue
		}
		kp, done, err := profile.BuildRefinePlan(st.tag, c.cfg, k, c.opts, st.round, st.prior)
		if err != nil {
			return nil, nil, false, err
		}
		if done {
			st.done = true
			continue
		}
		st.active = true
		plan.Tasks = append(plan.Tasks, kp.Tasks...)
	}
	if len(plan.Tasks) == 0 {
		return nil, nil, true, nil
	}
	data, units, err := planUnits(plan)
	return data, units, false, err
}

// fold groups one finished round's results per kernel and advances
// each active kernel's refinement state — the in-memory equivalent of
// SaveRound followed by a re-read.
func (c *RefineCampaign) fold(prev []Result) error {
	byKernel := map[string][]gridplan.Measurement{}
	for _, r := range prev {
		var m gridplan.Measurement
		if err := json.Unmarshal(r.Data, &m); err != nil {
			return fmt.Errorf("fleet: refine result %s: %w", r.Key, err)
		}
		if m.Key() != r.Key {
			return fmt.Errorf("fleet: refine result key %s carries measurement %s", r.Key, m.Key())
		}
		byKernel[m.Kernel] = append(byKernel[m.Kernel], m)
	}
	for _, k := range c.kernels {
		st := c.states[k.Name]
		ms := byKernel[k.Name]
		delete(byKernel, k.Name)
		if !st.active {
			if len(ms) > 0 {
				return fmt.Errorf("fleet: measurements for inactive kernel %s", k.Name)
			}
			continue
		}
		if len(ms) == 0 {
			return fmt.Errorf("fleet: round %d of %s completed with no measurements", st.round, k.Name)
		}
		for _, m := range ms {
			if m.Tag != st.tag {
				return fmt.Errorf("fleet: measurement %s has tag %s, campaign uses %s", m.Key(), m.Tag, st.tag)
			}
		}
		if c.store.Dir != "" {
			if err := c.store.SaveRound(st.tag, k.Name, st.round, ms); err != nil {
				return err
			}
		}
		merged, err := gridplan.Merge(st.prior, ms)
		if err != nil {
			return err
		}
		st.prior = merged
		st.round++
	}
	for name := range byKernel {
		return fmt.Errorf("fleet: measurements for unknown kernel %s", name)
	}
	return nil
}

// Merged reports whether every task of plan already has a measurement
// in the campaign's folded rounds: a retried merge of a round that was
// already folded, which must not be folded — or persisted — again.
func (c *RefineCampaign) Merged(plan *gridplan.Plan) bool {
	have := map[string]bool{}
	for _, st := range c.states {
		for _, m := range st.prior {
			have[m.Key()] = true
		}
	}
	for _, t := range plan.Tasks {
		if !have[t.Key()] {
			return false
		}
	}
	return true
}

// SaveTo assembles the converged profiles into a profile store — the
// same MergeShards + Save path every other campaign tail uses — and
// returns the kernel names saved. It is the refinement's final
// output: the coordinator's raw results cover only the rounds run
// this session, while the campaign state also folds rounds resumed
// from the store.
func (c *RefineCampaign) SaveTo(st profile.Store) ([]string, error) {
	var names []string
	for _, k := range c.kernels {
		state := c.states[k.Name]
		if !state.done {
			return names, fmt.Errorf("fleet: refinement of %s has not converged", k.Name)
		}
		pr, err := profile.MergeShards(k.Name, state.prior)
		if err != nil {
			return names, err
		}
		if err := st.Save(state.tag, pr); err != nil {
			return names, err
		}
		names = append(names, k.Name)
	}
	return names, nil
}

// SaveProfiles decodes a profile campaign's results, groups them per
// (tag, kernel), and assembles each group through profile.MergeShards
// + Store.Save — the arithmetic of the in-process sweep — so the
// output directory is byte-identical to the single-process sweep's. Returns the kernel names saved, in plan key
// order.
func SaveProfiles(st profile.Store, rs []Result) ([]string, error) {
	type group struct {
		tag, kernel string
		ms          []gridplan.Measurement
	}
	byKey := map[string]*group{}
	var order []*group
	for _, r := range rs {
		var m gridplan.Measurement
		if err := json.Unmarshal(r.Data, &m); err != nil {
			return nil, fmt.Errorf("fleet: result %s: %w", r.Key, err)
		}
		if m.Key() != r.Key {
			return nil, fmt.Errorf("fleet: result key %s carries measurement %s", r.Key, m.Key())
		}
		gk := m.Tag + "|" + m.Kernel
		g, ok := byKey[gk]
		if !ok {
			g = &group{tag: m.Tag, kernel: m.Kernel}
			byKey[gk] = g
			order = append(order, g)
		}
		g.ms = append(g.ms, m)
	}
	var names []string
	for _, g := range order {
		pr, err := profile.MergeShards(g.kernel, g.ms)
		if err != nil {
			return names, err
		}
		if err := st.Save(g.tag, pr); err != nil {
			return names, err
		}
		names = append(names, g.kernel)
	}
	return names, nil
}

// SaveCells decodes a cell campaign's results and saves the merged
// cell set into the results store figure runs load from. Returns the
// (tag, grid) saved and the cell count.
func SaveCells(st results.Store, rs []Result) (tag, grid string, n int, err error) {
	cells := make([]results.CellResult, 0, len(rs))
	for _, r := range rs {
		var c results.CellResult
		if err := json.Unmarshal(r.Data, &c); err != nil {
			return "", "", 0, fmt.Errorf("fleet: result %s: %w", r.Key, err)
		}
		if c.Key() != r.Key {
			return "", "", 0, fmt.Errorf("fleet: result key %s carries cell %s", r.Key, c.Key())
		}
		cells = append(cells, c)
	}
	if len(cells) == 0 {
		return "", "", 0, fmt.Errorf("fleet: no cell results to save")
	}
	merged, err := results.Merge(cells)
	if err != nil {
		return "", "", 0, err
	}
	tag, grid = merged[0].Tag, merged[0].Grid
	for _, c := range merged {
		if c.Tag != tag || c.Grid != grid {
			return "", "", 0, fmt.Errorf("fleet: mixed cell identities (%s/%s vs %s/%s)", tag, grid, c.Tag, c.Grid)
		}
	}
	if err := st.Save(tag, grid, merged); err != nil {
		return "", "", 0, err
	}
	return tag, grid, len(merged), nil
}
