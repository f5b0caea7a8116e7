package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"poise/internal/gridplan"
	"poise/internal/results"
)

// gridOptions is subsetOptions narrowed to one workload and a coarse
// profile grid (the cache equality holds at any resolution), plus a
// cache directory.
func gridOptions(dir string) Options {
	o := subsetOptions(1, 0)
	o.EvalSubset = []string{"bfs"}
	o.EvalStepN, o.EvalStepP = 12, 12
	o.CacheDir = dir
	return o
}

// TestSchemeGridPlanDeterministicOrder pins the documented cell
// enumeration order of the Fig. 7/8/9 grid: workload-major (the
// evaluation-set order), schemes in SchemeNames order — a pure
// function of the options, independent of map iteration order and of
// the worker count.
func TestSchemeGridPlanDeterministicOrder(t *testing.T) {
	h := NewHarness(subsetOptions(1, 0))
	plan, err := h.CellPlan("scheme")
	if err != nil {
		t.Fatal(err)
	}
	evalSet := h.EvalWorkloads()
	if len(plan.Cells) != len(evalSet)*len(SchemeNames) {
		t.Fatalf("plan has %d cells, want %d", len(plan.Cells), len(evalSet)*len(SchemeNames))
	}
	i := 0
	for _, wl := range evalSet {
		for ord, scheme := range SchemeNames {
			c := plan.Cells[i]
			i++
			if c.Workload != wl.Name || c.Scheme != scheme || c.Ord != ord {
				t.Fatalf("cell %d is (%s, %s, ord %d), want (%s, %s, ord %d): enumeration must be workload-major in SchemeNames order",
					i-1, c.Workload, c.Scheme, c.Ord, wl.Name, scheme, ord)
			}
			if c.Digest == "" || c.Tag == "" {
				t.Fatalf("cell %s lacks digest or tag", c.Key())
			}
		}
	}
	// A different worker count must not change the plan.
	again, err := NewHarness(subsetOptions(4, 0)).CellPlan("scheme")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, again) {
		t.Fatal("cell plan must be identical across harness constructions and worker counts")
	}
	// The key sort groups per workload with schemes still in
	// SchemeNames order (the ordinal is part of the key).
	plan.Sort()
	for j := 0; j < len(plan.Cells); j++ {
		if want := SchemeNames[j%len(SchemeNames)]; plan.Cells[j].Scheme != want {
			t.Fatalf("after sort, cell %d has scheme %s, want %s", j, plan.Cells[j].Scheme, want)
		}
	}
}

// TestCellTagMovesWithConfiguration: the results-cache tag must
// separate configurations, grids and model provenance, or stale cells
// could be served across them.
func TestCellTagMovesWithConfiguration(t *testing.T) {
	a := NewHarness(subsetOptions(1, 0))
	b := NewHarness(Options{SMs: 4, EvalStepN: 8, EvalStepP: 8, TrainStepN: 8, TrainStepP: 8})
	if a.cellTag("scheme") == b.cellTag("scheme") {
		t.Fatal("different configurations must not share cell tags")
	}
	if a.cellTag("scheme") == a.cellTag("stride") {
		t.Fatal("different grids must not share cell tags")
	}
	o := subsetOptions(1, 0)
	w, err := a.ModelWeights()
	if err != nil {
		t.Fatal(err)
	}
	w.Alpha[0] += 1
	o.Weights = &w
	if NewHarness(o).cellTag("scheme") == a.cellTag("scheme") {
		t.Fatal("an explicit weights override must move the cell tag")
	}
	ra := subsetOptions(1, 0)
	ra.RandomSeeds = 7
	if NewHarness(ra).cellTag("alternatives") == a.cellTag("alternatives") {
		t.Fatal("RandomSeeds must move the alternatives grid tag")
	}
}

// TestRunCellTasksValidatesPlan: foreign tags, drifted digests and
// unknown schemes are rejected before anything simulates.
func TestRunCellTasksValidatesPlan(t *testing.T) {
	h := NewHarness(subsetOptions(1, 0))
	plan, err := h.CellPlan("compute")
	if err != nil {
		t.Fatal(err)
	}
	// A plan from a differently-configured harness must be refused.
	other := NewHarness(Options{SMs: 4, EvalStepN: 8, EvalStepP: 8, TrainStepN: 8, TrainStepP: 8})
	if _, err := other.RunCellTasks("compute", plan.Cells[:1]); err == nil ||
		!strings.Contains(err.Error(), "tag") {
		t.Fatalf("foreign plan tag must be rejected, got %v", err)
	}
	// A drifted workload digest must be refused.
	bad := append([]gridplan.CellTask(nil), plan.Cells[:1]...)
	bad[0].Digest = "deadbeef"
	if _, err := h.RunCellTasks("compute", bad); err == nil ||
		!strings.Contains(err.Error(), "digest") {
		t.Fatalf("digest drift must be rejected, got %v", err)
	}
	// An unknown scheme ordinal must be refused.
	bad = append([]gridplan.CellTask(nil), plan.Cells[:1]...)
	bad[0].Scheme = "Quantum"
	if _, err := h.RunCellTasks("compute", bad); err == nil {
		t.Fatal("unknown scheme must be rejected")
	}
	// Unknown grids are refused everywhere.
	if _, err := h.CellPlan("nope"); err == nil {
		t.Fatal("unknown grid must fail CellPlan")
	}
	if _, err := h.RunCellTasks("nope", nil); err == nil {
		t.Fatal("unknown grid must fail RunCellTasks")
	}
}

// TestGridCellsCachesAndRepairs: an in-process grid run on a cache
// directory persists its cells (so a re-run loads them), and a corrupt
// entry is treated as a miss and overwritten — the LoadOrSweep repair
// discipline, applied to cells.
func TestGridCellsCachesAndRepairs(t *testing.T) {
	dir := t.TempDir()
	h := NewHarness(gridOptions(dir))
	want, err := h.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := h.CellPlan("compute")
	if err != nil {
		t.Fatal(err)
	}
	tag := plan.Cells[0].Tag
	st := results.Store{Dir: dir}
	cells, err := st.Load(tag, "compute")
	if err != nil {
		t.Fatalf("in-process grid run must persist its cells: %v", err)
	}
	if len(cells) != len(plan.Cells) {
		t.Fatalf("cached %d cells, plan has %d", len(cells), len(plan.Cells))
	}
	// A second harness assembles identically (from the cache).
	again, err := NewHarness(gridOptions(dir)).Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, again) {
		t.Fatal("cached cells assembled a different figure")
	}
	// Corrupt the entry: the next run repairs it and still agrees.
	files, _ := filepath.Glob(filepath.Join(dir, "*_compute.cells.json"))
	if len(files) != 1 {
		t.Fatalf("want 1 cells file, got %v", files)
	}
	if err := os.WriteFile(files[0], []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	repaired, err := NewHarness(gridOptions(dir)).Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, repaired) {
		t.Fatal("repair run diverged")
	}
	if _, err := st.Load(tag, "compute"); err != nil {
		t.Fatalf("corrupt entry must be overwritten with a good one: %v", err)
	}
}
