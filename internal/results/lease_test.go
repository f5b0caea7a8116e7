package results_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"poise/internal/fleet"
	"poise/internal/gridplan"
	"poise/internal/results"
)

// Cell shards are static leases of a fleet cell campaign (package
// fleet): these tests write cells as lease files and merge them back
// into the results store, the path every multi-process grid takes.

// cellExecutor answers each cell task with its precomputed result,
// standing in for an experiment harness.
type cellExecutor map[string]results.CellResult

func (e cellExecutor) Prepare([]byte) (fleet.Batch, error) { return e, nil }

func (e cellExecutor) Run(lines []json.RawMessage) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, len(lines))
	for i, l := range lines {
		var task gridplan.CellTask
		if err := json.Unmarshal(l, &task); err != nil {
			return nil, err
		}
		raw, err := json.Marshal(e[task.Key()])
		if err != nil {
			return nil, err
		}
		out[i] = raw
	}
	return out, nil
}

// writeLeases writes the n static leases of plan's campaign into dir.
func writeLeases(t *testing.T, cells []results.CellResult, plan *gridplan.CellPlan, dir string, n int) []string {
	t.Helper()
	ex := cellExecutor{}
	for _, c := range cells {
		ex[c.Key()] = c
	}
	executors := map[string]fleet.Executor{gridplan.CellPlanFormat: ex}
	var files []string
	for i := 0; i < n; i++ {
		c, err := fleet.NewCoordinator(fleet.CellCampaign{Plan: plan}, fleet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		path := fleet.LeaseFile(dir, c.Plan(), i, n)
		if _, err := c.RunLease(executors, i, n, path); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}
	return files
}

// mergeInto merges lease files of plan's campaign and saves the cells
// into st.
func mergeInto(st results.Store, plan *gridplan.CellPlan, files []string) error {
	c, err := fleet.NewCoordinator(fleet.CellCampaign{Plan: plan}, fleet.Options{})
	if err != nil {
		return err
	}
	res, _, err := c.MergeLeases(files)
	if err != nil {
		return err
	}
	_, _, _, err = fleet.SaveCells(st, res)
	return err
}

// TestShardJSONLRoundTripDeepEqual: cells written as a lease file and
// merged back into the store are reflect.DeepEqual-identical to the
// cells written.
func TestShardJSONLRoundTripDeepEqual(t *testing.T) {
	cells, plan := results.CellsForTest(3, 3)
	dir := t.TempDir()
	st := results.Store{Dir: dir}
	if err := mergeInto(st, plan, writeLeases(t, cells, plan, dir, 1)); err != nil {
		t.Fatal(err)
	}
	back, err := st.Load("cfg", "scheme")
	if err != nil {
		t.Fatal(err)
	}
	want, err := results.Merge(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, back) {
		t.Fatalf("lease round trip is not DeepEqual-identical:\nwrote %+v\nread  %+v", want, back)
	}
}

// TestReadShardRejectsGarbage: lease files that are not a completion
// body of the plan — garbage, another format, a truncated body — fail
// the merge.
func TestReadShardRejectsGarbage(t *testing.T) {
	cells, plan := results.CellsForTest(1, 1)
	dir := t.TempDir()
	good := writeLeases(t, cells, plan, dir, 1)[0]
	for name, content := range map[string]string{
		"garbage.jsonl":   "not json at all",
		"wrongfmt.jsonl":  `{"format":"poiseplan","version":1,"tasks":0}`,
		"truncated.jsonl": `{"worker":"w","gen":0,"lease":"","count":3}`,
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := mergeInto(results.Store{Dir: t.TempDir()}, plan, []string{good, p}); err == nil {
			t.Errorf("%s: must be rejected", name)
		}
	}
}

// TestStoreShardPartialsMerge: two leases merge into the regular cache
// entry; a lost lease, or none at all, fails the merge loudly and
// saves nothing.
func TestStoreShardPartialsMerge(t *testing.T) {
	cells, plan := results.CellsForTest(3, 3)
	dir := t.TempDir()
	files := writeLeases(t, cells, plan, dir, 2)
	st := results.Store{Dir: t.TempDir()}
	if err := mergeInto(st, plan, files); err != nil {
		t.Fatal(err)
	}
	want, _ := results.Merge(cells)
	loaded, err := st.Load("cfg", "scheme")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, loaded) {
		t.Fatal("merged leases differ from the direct merge")
	}
	empty := results.Store{Dir: t.TempDir()}
	if err := mergeInto(empty, plan, files[:1]); err == nil {
		t.Fatal("merging with a missing lease must fail")
	}
	if err := mergeInto(empty, plan, nil); err == nil {
		t.Fatal("merging no leases must fail")
	}
	if _, err := empty.Load("cfg", "scheme"); !os.IsNotExist(err) {
		t.Fatalf("a failed merge must save nothing, got %v", err)
	}
}
