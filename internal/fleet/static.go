package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"poise/internal/atomicfile"
	"poise/internal/gridplan"
)

// Static leases are the file form of a campaign. A static lease is
// slice i of N of the current generation's units, dealt round-robin in
// key order — so N processes holding the same plan cover every task
// exactly once without talking to each other — and assigned by
// position instead of granted over HTTP. Its worker runs the slice
// through the same Executor a served worker uses and writes the
// results as a /v1/complete body. Merging feeds those files through
// the coordinator's completion path, so a file shard and a served
// lease share one result format, one first-wins merge and one coverage
// check, and the campaign's save tail runs exactly as after -serve:
//
//	c, _ := NewCoordinator(camp, Options{})       // in each process
//	c.RunLease(executors, i, n, LeaseFile(dir, c.Plan(), i, n))
//	res, done, _ := c.MergeLeases(files)          // once, anywhere
//
// A lease file carries the content digest of its generation's plan,
// so leases of another plan, grid or refinement round are refused.

// planDigest names a plan generation by its content.
func planDigest(planData []byte) string {
	sum := sha256.Sum256(planData)
	return hex.EncodeToString(sum[:8])
}

// Plan returns the content digest of the current generation's plan —
// the identity a static lease carries — or "" once the campaign is
// complete.
func (c *Coordinator) Plan() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plan
}

// EmitPlan writes the campaign's current generation plan to path —
// the file that workers in other processes lease from. It returns the
// number of tasks written; done reports that the campaign has no
// generation left (a converged refinement), in which case nothing is
// written.
func EmitPlan(camp Campaign, path string) (tasks int, done bool, err error) {
	planData, units, done, err := camp.Next(0, nil)
	if err != nil || done {
		return 0, done, err
	}
	return len(units), false, atomicfile.WriteFile(path, planData, 0o644)
}

// RunLease runs static lease index of count over the current
// generation with the executor registered for the campaign's plan
// format, and writes the results to path as a /v1/complete body. The
// executor prepares the whole plan first, so a worker whose flags or
// catalogue drifted from the plan's fails before simulating anything.
// It returns the number of tasks run.
func (c *Coordinator) RunLease(executors map[string]Executor, index, count int, path string) (int, error) {
	c.mu.Lock()
	gen, plan, planData, b := c.gen, c.plan, c.planData, c.board
	c.mu.Unlock()
	if b == nil {
		return 0, errors.New("fleet: campaign has no generation left to lease")
	}
	units, err := gridplan.Shard(b.units, index, count)
	if err != nil {
		return 0, fmt.Errorf("fleet: static lease: %w", err)
	}
	ex := executors[c.camp.Format()]
	if ex == nil {
		return 0, fmt.Errorf("fleet: no executor for plan format %q", c.camp.Format())
	}
	batch, err := ex.Prepare(planData)
	if err != nil {
		return 0, err
	}
	keys := make([]string, len(units))
	lines := make([]json.RawMessage, len(units))
	for i, u := range units {
		keys[i], lines[i] = u.key, u.line
	}
	results, err := batchRun(batch, keys, lines)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	hdr := completeHeader{Worker: fmt.Sprintf("static-%d/%d", index, count), Gen: gen, Plan: plan}
	if err := writeCompletion(&buf, hdr, results); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	return len(results), atomicfile.WriteFile(path, buf.Bytes(), 0o644)
}

// MergeLeases feeds static lease files of the current generation
// through the completion path, with first-wins deduplication. A file
// of another plan or round, a result that is not a task of the
// generation, or a task left without a result (a missing lease) fails
// the merge. On success the campaign has advanced exactly as after a
// served generation: it returns the generation's results in key order
// and whether the campaign is now complete — false while a refinement
// has rounds left, whose next plan the campaign has already derived.
func (c *Coordinator) MergeLeases(paths []string) ([]Result, bool, error) {
	c.mu.Lock()
	gen, plan, start := c.gen, c.plan, len(c.results)
	c.mu.Unlock()
	if plan == "" {
		return nil, false, errors.New("fleet: campaign has no generation left to merge")
	}
	var lines []resultLine
	for _, path := range paths {
		hdr, ls, err := readLease(path)
		if err != nil {
			return nil, false, err
		}
		if hdr.Plan != plan {
			return nil, false, fmt.Errorf("fleet: %s is a lease of plan %s, not of the current plan %s (another plan or round?)",
				path, hdr.Plan, plan)
		}
		lines = append(lines, ls...)
	}
	rep := c.complete(completeHeader{Worker: "merge", Gen: gen, Plan: plan}, lines)
	if rep.Status == statusErr {
		return nil, false, errors.New(rep.Error)
	}
	if len(rep.Rejected) > 0 {
		return nil, false, fmt.Errorf("fleet: %d merged results are not tasks of plan %s (first %s)",
			len(rep.Rejected), plan, rep.Rejected[0])
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen == gen && !c.done {
		missing := c.board.missing()
		return nil, false, fmt.Errorf("fleet: plan %s: %d of %d tasks have no result, first %s (missing lease?)",
			plan, len(missing), len(c.board.units), missing[0])
	}
	return c.results[start:], c.done, nil
}

// readLease decodes one static lease file.
func readLease(path string) (completeHeader, []resultLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return completeHeader{}, nil, err
	}
	defer f.Close()
	hdr, lines, err := decodeCompletion(f)
	if err != nil {
		return hdr, nil, fmt.Errorf("%w (reading %s)", err, path)
	}
	return hdr, lines, nil
}

// LeaseFile names static lease index of count of the plan with digest
// plan inside dir. The digest keeps leases of different plans, grids
// and refinement rounds apart when they share a directory.
func LeaseFile(dir, plan string, index, count int) string {
	return filepath.Join(dir, fmt.Sprintf("lease-%s-%03dof%03d.jsonl", plan, index, count))
}

// LeaseFiles lists the static lease files of plan in dir.
func LeaseFiles(dir, plan string) ([]string, error) {
	return filepath.Glob(filepath.Join(dir, "lease-"+plan+"-*.jsonl"))
}
