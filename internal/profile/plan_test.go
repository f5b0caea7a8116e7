package profile

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"poise/internal/gridplan"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// TestShardedSweepMatchesInProcess is the acceptance invariant of the
// sharded sweep engine: splitting a sweep plan into 1, 2 or 3 shards,
// running each shard as its own RunTasks call (as separate processes
// would), and merging the partials must reproduce the in-process
// Sweep reflect.DeepEqual-exactly — including the speedup
// normalisation, whose baseline point lives in only one of the shards.
func TestShardedSweepMatchesInProcess(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("shardeq", 20, 12, 4)
	opts := SweepOptions{StepN: 4, StepP: 4}

	want, err := Sweep(cfg, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := BuildPlan("", cfg, k, opts)
	kernels := map[string]*trace.Kernel{k.Name: k}
	for _, n := range []int{1, 2, 3} {
		var shards [][]gridplan.Measurement
		for i := 0; i < n; i++ {
			sp, err := gridplan.Shard(plan.Tasks, i, n)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := RunTasks(cfg, kernels, sp, opts)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, ms)
		}
		got, err := MergeShards(k.Name, shards...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%d-shard merge differs from in-process sweep:\nwant %+v\ngot  %+v", n, want, got)
		}
	}
}

// TestPooledSweepMatchesFresh cross-checks the GPU pool at the sweep
// level: pooled (default) and fresh-GPU-per-point sweeps must agree
// exactly, at one worker and several.
func TestPooledSweepMatchesFresh(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("pooleq", 20, 12, 4)
	for _, workers := range []int{1, 3} {
		pooled, err := Sweep(cfg, k, SweepOptions{StepN: 6, StepP: 6, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Sweep(cfg, k, SweepOptions{StepN: 6, StepP: 6, Workers: workers, FreshGPUs: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pooled, fresh) {
			t.Fatalf("workers=%d: pooled sweep diverged from fresh-per-point sweep", workers)
		}
	}
}

func TestRunTasksRejectsDigestMismatch(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("digcheck", 16, 8, 2)
	plan := BuildPlan("tag", cfg, k, SweepOptions{StepN: 8, StepP: 8})

	drifted := testutil.ThrashKernel("digcheck", 16, 9, 2) // one extra iteration
	_, err := RunTasks(cfg, map[string]*trace.Kernel{k.Name: drifted}, plan.Tasks, SweepOptions{})
	if err == nil {
		t.Fatal("drifted kernel must fail the digest check")
	}
	if _, err := RunTasks(cfg, map[string]*trace.Kernel{}, plan.Tasks, SweepOptions{}); err == nil {
		t.Fatal("missing kernel must error")
	}
}

func TestMergeShardsNeedsBaseline(t *testing.T) {
	ms := []gridplan.Measurement{
		{Kernel: "k", N: 4, P: 2, IPC: 1},
		{Kernel: "k", N: 6, P: 1, IPC: 1}, // maxN=6, but (6,6) absent
	}
	if _, err := MergeShards("k", ms); err == nil {
		t.Fatal("missing baseline point must fail the merge")
	}
	if _, err := MergeShards("k"); err == nil {
		t.Fatal("empty merge must fail")
	}
	mixed := []gridplan.Measurement{
		{Kernel: "k", N: 2, P: 2, IPC: 1},
		{Kernel: "other", N: 1, P: 1, IPC: 1},
	}
	if _, err := MergeShards("k", mixed); err == nil {
		t.Fatal("mixed kernels must fail the merge")
	}
}

// TestLoadOrSweepReSweepsCorrupt is the corrupt-cache regression test:
// a truncated/garbled cache entry must surface as ErrCorrupt from
// Load, and LoadOrSweep must silently re-sweep and repair the entry
// instead of aborting the run.
func TestLoadOrSweepReSweepsCorrupt(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("corrupt", 16, 8, 2)
	opts := SweepOptions{StepN: 8, StepP: 8}

	want, err := st.LoadOrSweep("cfg", cfg, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := st.path("cfg", k.Name)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, corrupt := range map[string][]byte{
		"truncated": good[:len(good)/2],
		"garbled":   []byte(`{"Kernel":`),
		"empty":     nil,
		"wrong":     []byte(`{"Unrelated": true}`),
	} {
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Load("cfg", k.Name); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Load error = %v, want ErrCorrupt", name, err)
		}
		got, err := st.LoadOrSweep("cfg", cfg, k, opts)
		if err != nil {
			t.Fatalf("%s: LoadOrSweep must re-sweep a corrupt entry, got %v", name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: re-sweep diverged from the original profile", name)
		}
		// The damaged file must have been repaired.
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(repaired, good) {
			t.Fatalf("%s: cache entry not repaired", name)
		}
	}
}
