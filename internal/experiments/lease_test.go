package experiments_test

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"poise/internal/experiments"
	"poise/internal/fleet"
	"poise/internal/sim"
)

// The harness's multi-process flow: profile sweeps and experiment
// grids run as static leases of the fleet campaign (package fleet) —
// each lease in its own harness, as separate worker processes would —
// and merged through the coordinator's completion path into the cache
// directory, from which a fresh harness assembles its figures. These
// tests pin that every split is reflect.DeepEqual-identical to the
// in-process run.

// leaseOptions is SubsetOptions narrowed to one workload and a coarse
// profile grid (the merge equality holds at any resolution), plus a
// shared cache directory for lease files and merged entries.
func leaseOptions(dir string) experiments.Options {
	o := experiments.SubsetOptions(1, 0)
	o.EvalSubset = []string{"bfs"}
	o.EvalStepN, o.EvalStepP = 12, 12
	o.CacheDir = dir
	return o
}

// runLeases runs the n static leases of the campaign's current
// generation, each in a fresh harness built from o, writing the lease
// files into o.CacheDir. It reports false when the campaign has no
// generation left.
func runLeases(t *testing.T, o experiments.Options, grid string, n int) bool {
	t.Helper()
	for i := 0; i < n; i++ {
		h := experiments.NewHarness(o)
		camp, _, err := fleet.HarnessCampaign(h, grid)
		if err != nil {
			t.Fatal(err)
		}
		c, err := fleet.NewCoordinator(camp, fleet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if c.Plan() == "" {
			return false
		}
		if _, err := c.RunLease(fleet.HarnessExecutors(h), i, n, fleet.LeaseFile(o.CacheDir, c.Plan(), i, n)); err != nil {
			t.Fatalf("lease %d/%d: %v", i, n, err)
		}
	}
	return true
}

// mergeLeases merges the current generation's lease files in
// o.CacheDir and, once the campaign is complete, saves it into the
// harness caches. It reports whether the campaign is complete.
func mergeLeases(o experiments.Options, grid string) (bool, error) {
	h := experiments.NewHarness(o)
	camp, save, err := fleet.HarnessCampaign(h, grid)
	if err != nil {
		return false, err
	}
	c, err := fleet.NewCoordinator(camp, fleet.Options{})
	if err != nil {
		return false, err
	}
	files, err := fleet.LeaseFiles(o.CacheDir, c.Plan())
	if err != nil {
		return false, err
	}
	res, done, err := c.MergeLeases(files)
	if err != nil || !done {
		return done, err
	}
	_, err = save(res)
	return true, err
}

// TestHarnessShardRoundTripMatchesInProcess drives the evaluation
// sweep campaign at the race-shrunk Small subset as 1, 2 and 3 static
// leases, merges them, and requires every cached profile to be
// reflect.DeepEqual-identical to the in-process sweep the unsharded
// harness produces.
func TestHarnessShardRoundTripMatchesInProcess(t *testing.T) {
	direct := experiments.NewHarness(leaseOptions("")) // no cache: in-process sweeps
	kernels := sim.DistinctKernels(direct.EvalWorkloads())
	want := map[string]interface{}{}
	for _, k := range kernels {
		pr, err := direct.KernelProfile(k)
		if err != nil {
			t.Fatal(err)
		}
		want[k.Name] = pr
	}

	for _, leases := range []int{1, 2, 3} {
		dir := t.TempDir()
		runLeases(t, leaseOptions(dir), "", leases)
		if done, err := mergeLeases(leaseOptions(dir), ""); err != nil || !done {
			t.Fatalf("leases=%d: merge: done %v, %v", leases, done, err)
		}
		// A fresh harness on the merged cache must load profiles equal to
		// the in-process sweeps.
		loaded := experiments.NewHarness(leaseOptions(dir))
		for _, k := range kernels {
			pr, err := loaded.KernelProfile(k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want[k.Name], pr) {
				t.Fatalf("leases=%d: kernel %s: merged profile differs from in-process sweep", leases, k.Name)
			}
		}
	}
}

// TestStaticLeaseValidatesOptions pins the error paths of the profile
// sweep flow: a bad lease assignment, a merge with no lease files, and
// a worker whose flags drifted from the plan's (a different seed
// materialises different kernels), which must fail before it
// simulates or writes anything.
func TestStaticLeaseValidatesOptions(t *testing.T) {
	dir := t.TempDir()
	h := experiments.NewHarness(leaseOptions(dir))
	camp, _, err := fleet.HarnessCampaign(h, "")
	if err != nil {
		t.Fatal(err)
	}
	c, err := fleet.NewCoordinator(camp, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range [][2]int{{0, 0}, {5, 2}, {-1, 2}} {
		if _, err := c.RunLease(fleet.HarnessExecutors(h), spec[0], spec[1], fleet.LeaseFile(dir, c.Plan(), 0, 1)); err == nil {
			t.Fatalf("lease %d/%d must be refused", spec[0], spec[1])
		}
	}
	if _, err := mergeLeases(leaseOptions(dir), ""); err == nil || !strings.Contains(err.Error(), "missing lease") {
		t.Fatalf("a merge with no lease files must fail naming the missing lease, got %v", err)
	}
	drifted := leaseOptions(dir)
	drifted.Seed = 1
	path := fleet.LeaseFile(dir, c.Plan(), 0, 2)
	if _, err := c.RunLease(fleet.HarnessExecutors(experiments.NewHarness(drifted)), 0, 2, path); err == nil ||
		!strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("a worker with a drifted seed must fail on the plan's digests, got %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused lease must write nothing (stat: %v)", err)
	}
}

// TestCellLeaseValidatesOptions is the experiment-grid analogue: bad
// lease assignments and empty merges fail, and a worker harness whose
// configuration tag drifted (-sms) fails in Prepare before simulating.
func TestCellLeaseValidatesOptions(t *testing.T) {
	dir := t.TempDir()
	h := experiments.NewHarness(leaseOptions(dir))
	camp, _, err := fleet.HarnessCampaign(h, "compute")
	if err != nil {
		t.Fatal(err)
	}
	c, err := fleet.NewCoordinator(camp, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunLease(fleet.HarnessExecutors(h), 2, 2, fleet.LeaseFile(dir, c.Plan(), 2, 2)); err == nil {
		t.Fatal("an out-of-range lease index must be refused")
	}
	if _, err := mergeLeases(leaseOptions(dir), "compute"); err == nil {
		t.Fatal("a merge with no lease files must fail")
	}
	drifted := leaseOptions(dir)
	drifted.SMs = 4
	if _, err := c.RunLease(fleet.HarnessExecutors(experiments.NewHarness(drifted)), 0, 1, fleet.LeaseFile(dir, c.Plan(), 0, 1)); err == nil ||
		!strings.Contains(err.Error(), "does not match") {
		t.Fatalf("a worker with a drifted configuration must fail on the plan tag, got %v", err)
	}
	if _, _, err := fleet.HarnessCampaign(h, "nope"); err == nil {
		t.Fatal("an unknown grid must be refused")
	}
}

// gridRoundTrip runs a grid's campaign as n static leases, merges
// them, and returns a fresh harness on the merged cache — the figure
// methods on it assemble from the cached cells.
func gridRoundTrip(t *testing.T, grid string, leases int) *experiments.Harness {
	t.Helper()
	dir := t.TempDir()
	runLeases(t, leaseOptions(dir), grid, leases)
	if done, err := mergeLeases(leaseOptions(dir), grid); err != nil || !done {
		t.Fatalf("leases=%d: merge: done %v, %v", leases, done, err)
	}
	return experiments.NewHarness(leaseOptions(dir))
}

// TestSchemeGridShardRoundTripMatchesInProcess is the acceptance
// property for the Fig. 7/8/9 grid: running the scheme grid as 1, 2
// and 3 static leases, merging, and assembling the figures from the
// merged cells is reflect.DeepEqual-identical to the in-process run.
func TestSchemeGridShardRoundTripMatchesInProcess(t *testing.T) {
	direct, err := experiments.NewHarness(leaseOptions("")).Performance()
	if err != nil {
		t.Fatal(err)
	}
	leaseCounts := []int{1, 2, 3}
	if experiments.RaceEnabled {
		leaseCounts = []int{2} // ~10x slower simulation under -race
	}
	for _, leases := range leaseCounts {
		got, err := gridRoundTrip(t, "scheme", leases).Performance()
		if err != nil {
			t.Fatalf("leases=%d: %v", leases, err)
		}
		if !reflect.DeepEqual(direct, got) {
			t.Fatalf("leases=%d: merged scheme grid diverged from the in-process run:\ndirect %+v\nmerged %+v",
				leases, direct, got)
		}
	}
}

// TestComputeGridShardRoundTripMatchesInProcess covers the first
// sensitivity figure (Fig. 16) through the same 1/2/3-lease identity,
// including its per-cell altered configuration (the 64x Pbest probe).
func TestComputeGridShardRoundTripMatchesInProcess(t *testing.T) {
	direct, err := experiments.NewHarness(leaseOptions("")).Fig16()
	if err != nil {
		t.Fatal(err)
	}
	for _, leases := range []int{1, 2, 3} {
		got, err := gridRoundTrip(t, "compute", leases).Fig16()
		if err != nil {
			t.Fatalf("leases=%d: %v", leases, err)
		}
		if !reflect.DeepEqual(direct, got) {
			t.Fatalf("leases=%d: merged compute grid diverged from the in-process run", leases)
		}
	}
}

// TestStrideGridShardRoundTripMatchesInProcess covers a second
// sensitivity figure (Fig. 11) through the lease pipeline.
func TestStrideGridShardRoundTripMatchesInProcess(t *testing.T) {
	experiments.SkipUnderRace(t)
	direct, err := experiments.NewHarness(leaseOptions("")).Fig11()
	if err != nil {
		t.Fatal(err)
	}
	got, err := gridRoundTrip(t, "stride", 2).Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, got) {
		t.Fatal("merged stride grid diverged from the in-process run")
	}
}

// TestRefineShardRoundTrip drives the staged pruned campaign with the
// harness's per-kernel tags: each round runs as 2 static leases and
// merges (persisting the round in the cache), looped to convergence;
// the cached profiles must then be identical to the ones an
// independent pruned harness sweeps in one process.
func TestRefineShardRoundTrip(t *testing.T) {
	base := experiments.SubsetOptions(1, 0)
	base.Prune = true
	base.CacheDir = t.TempDir()

	for round := 0; ; round++ {
		if round == 12 {
			t.Fatal("staged refinement did not converge in 12 rounds")
		}
		if !runLeases(t, base, "", 2) {
			t.Fatal("campaign finished without a merge reporting it")
		}
		done, err := mergeLeases(base, "")
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	// The staged campaign's cache must now serve profiles identical to
	// an in-process pruned harness's.
	staged := experiments.NewHarness(base)
	inproc := experiments.SubsetOptions(1, 0)
	inproc.Prune = true
	want := experiments.NewHarness(inproc)
	for _, k := range sim.DistinctKernels(want.EvalWorkloads()) {
		got, err := staged.KernelProfile(k)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := want.KernelProfile(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Points, pr.Points) {
			t.Fatalf("staged pruned profile of %s differs from in-process", k.Name)
		}
	}
}
