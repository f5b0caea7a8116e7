package gridplan

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"poise/internal/testutil"
)

func TestEnumerateProperties(t *testing.T) {
	for _, tc := range []struct{ maxN, stepN, stepP int }{
		{24, 1, 1}, {24, 2, 2}, {24, 8, 8}, {24, 3, 5}, {1, 1, 1}, {7, 0, 0},
	} {
		grid := Enumerate(tc.maxN, tc.stepN, tc.stepP)
		seen := map[Coord]bool{}
		for _, c := range grid {
			if c.P < 1 || c.P > c.N || c.N > tc.maxN {
				t.Fatalf("%+v: invalid point %+v", tc, c)
			}
			if seen[c] {
				t.Fatalf("%+v: duplicate point %+v", tc, c)
			}
			seen[c] = true
		}
		// The corners the experiments rely on must always be present.
		for _, c := range []Coord{{tc.maxN, tc.maxN}, {tc.maxN, 1}, {1, 1}} {
			if !seen[c] {
				t.Fatalf("%+v: corner %+v missing", tc, c)
			}
		}
		// The diagonal is closed at StepN resolution.
		stepN := tc.stepN
		if stepN <= 0 {
			stepN = 1
		}
		for n := 1; n <= tc.maxN; n += stepN {
			if !seen[Coord{n, n}] {
				t.Fatalf("%+v: diagonal point (%d,%d) missing", tc, n, n)
			}
		}
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	a := Enumerate(24, 2, 3)
	b := Enumerate(24, 2, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("enumeration must be deterministic")
	}
}

func planForTest(points int) *Plan {
	p := &Plan{Version: PlanVersion}
	for _, c := range Enumerate(points, 2, 2) {
		p.Tasks = append(p.Tasks, Task{
			Tag: "cfg1", Kernel: "k1", Digest: "abcd", N: c.N, P: c.P,
		})
		p.Tasks = append(p.Tasks, Task{
			Tag: "cfg1", Kernel: "k2", Digest: "ef01", N: c.N, P: c.P, Seed: 7,
		})
	}
	return p
}

func TestPlanJSONLRoundTrip(t *testing.T) {
	p := planForTest(12)
	var buf bytes.Buffer
	if err := WritePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Tasks, back.Tasks) {
		t.Fatalf("round trip changed tasks:\nwant %+v\ngot  %+v", p.Tasks, back.Tasks)
	}
}

func TestReadPlanRejectsGarbage(t *testing.T) {
	for name, input := range map[string]string{
		"empty":       "",
		"not-json":    "hello world\n",
		"wrong-fmt":   `{"format":"other","version":1,"tasks":0}` + "\n",
		"bad-version": `{"format":"poiseplan","version":99,"tasks":0}` + "\n",
		"truncated":   `{"format":"poiseplan","version":1,"tasks":3}` + "\n" + `{"tag":"t","kernel":"k","n":2,"p":1}` + "\n",
		"bad-coord":   `{"format":"poiseplan","version":1,"tasks":1}` + "\n" + `{"tag":"t","kernel":"k","n":1,"p":2}` + "\n",
		"dup-task": `{"format":"poiseplan","version":1,"tasks":2}` + "\n" +
			`{"tag":"t","kernel":"k","n":2,"p":1}` + "\n" + `{"tag":"t","kernel":"k","n":2,"p":1}` + "\n",
	} {
		if _, err := ReadPlan(strings.NewReader(input)); err == nil {
			t.Errorf("%s: ReadPlan accepted invalid input", name)
		}
	}
}

func TestShardPartition(t *testing.T) {
	p := planForTest(16)
	for _, n := range []int{1, 2, 3, 5, len(p.Tasks) + 3} {
		seen := map[string]int{}
		total := 0
		var sizes []int
		for i := 0; i < n; i++ {
			s, err := Shard(p.Tasks, i, n)
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, len(s))
			for _, task := range s {
				seen[task.Key()]++
				total++
			}
		}
		if total != len(p.Tasks) {
			t.Fatalf("n=%d: shards cover %d of %d tasks", n, total, len(p.Tasks))
		}
		for k, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: task %s in %d shards", n, k, c)
			}
		}
		// Round-robin dealing keeps shard sizes within one task.
		min, max := sizes[0], sizes[0]
		for _, s := range sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if max-min > 1 {
			t.Fatalf("n=%d: unbalanced shards %v", n, sizes)
		}
	}
	if _, err := Shard(p.Tasks, 2, 2); err == nil {
		t.Fatal("out-of-range shard index must error")
	}
	if _, err := Shard(p.Tasks, 0, 0); err == nil {
		t.Fatal("zero shard count must error")
	}
}

func measurementsFor(tasks []Task) []Measurement {
	var ms []Measurement
	for _, t := range tasks {
		ms = append(ms, Measurement{
			Tag: t.Tag, Kernel: t.Kernel, N: t.N, P: t.P,
			IPC: float64(t.N) + float64(t.P)/100, Cycles: int64(t.N * 1000),
		})
	}
	return ms
}

func TestMergeAnySplitIdentical(t *testing.T) {
	p := planForTest(12)
	full := measurementsFor(p.Tasks)
	want, err := Merge(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 4} {
		var shards [][]Measurement
		for i := 0; i < n; i++ {
			s, err := Shard(p.Tasks, i, n)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, measurementsFor(s))
		}
		got, err := Merge(shards...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("merge of %d shards differs from single-shard merge", n)
		}
		if err := VerifyCover(p.Tasks, got, "measurement"); err != nil {
			t.Fatalf("n=%d: complete merge failed verification: %v", n, err)
		}
	}
}

func TestMergeRejectsDuplicates(t *testing.T) {
	p := planForTest(6)
	ms := measurementsFor(p.Tasks)
	if _, err := Merge(ms, ms[:1]); err == nil {
		t.Fatal("duplicate measurement must fail the merge")
	}
}

func TestVerifyCatchesMissingAndExtra(t *testing.T) {
	p := planForTest(6)
	ms := measurementsFor(p.Tasks)
	if err := VerifyCover(p.Tasks, ms[1:], "measurement"); err == nil {
		t.Fatal("missing measurement must fail verification")
	}
	extra := append(append([]Measurement(nil), ms...),
		Measurement{Tag: "cfg1", Kernel: "k1", N: 999, P: 999})
	if err := VerifyCover(p.Tasks, extra, "measurement"); err == nil {
		t.Fatal("extra measurement must fail verification")
	}
}

func TestMeasurementsJSONLRoundTrip(t *testing.T) {
	p := planForTest(8)
	ms := measurementsFor(p.Tasks)
	var buf bytes.Buffer
	if err := WriteMeasurements(&buf, 1, 3, ms); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMeasurements(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ms, back) {
		t.Fatal("measurement round trip lost data")
	}
	// A plan file is not a measurement file and vice versa.
	var pbuf bytes.Buffer
	if err := WritePlan(&pbuf, p); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMeasurements(bytes.NewReader(pbuf.Bytes())); err == nil {
		t.Fatal("ReadMeasurements accepted a plan file")
	}
	if _, err := ReadPlan(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("ReadPlan accepted a measurement file")
	}
}

func TestKernelDigestMovesWithContent(t *testing.T) {
	k1 := testutil.ThrashKernel("dig", 16, 10, 4)
	k2 := testutil.ThrashKernel("dig", 16, 10, 4)
	if KernelDigest(k1) != KernelDigest(k2) {
		t.Fatal("identical kernels must digest identically")
	}
	k3 := testutil.ThrashKernel("dig", 16, 11, 4)
	if KernelDigest(k1) == KernelDigest(k3) {
		t.Fatal("changing the kernel must move the digest")
	}
	k4 := testutil.ThrashKernel("dig", 16, 10, 4)
	k4.Seed = 99
	if KernelDigest(k1) == KernelDigest(k4) {
		t.Fatal("changing the seed must move the digest")
	}
}

func TestParseShard(t *testing.T) {
	for s, want := range map[string][2]int{
		"0/1": {0, 1}, "0/4": {0, 4}, "3/4": {3, 4},
	} {
		i, n, err := ParseShard(s)
		if err != nil || i != want[0] || n != want[1] {
			t.Fatalf("ParseShard(%q) = %d, %d, %v; want %v", s, i, n, err, want)
		}
	}
	for _, s := range []string{"", "1", "a/b", "1/0", "2/2", "-1/2", "1/2/3", "1/2x"} {
		if _, _, err := ParseShard(s); err == nil {
			t.Errorf("ParseShard(%q) must fail", s)
		}
	}
}

func TestKeyOrderMatchesCoordinateOrder(t *testing.T) {
	// Lexicographic key order must equal numeric (N, P) order, or the
	// merged point order would diverge from profile.Sweep's sort.
	var prev string
	for n := 1; n <= 120; n++ {
		for p := 1; p <= n; p++ {
			k := Task{Tag: "t", Kernel: "k", N: n, P: p}.Key()
			if prev != "" && !(prev < k) {
				t.Fatalf("key order broken: %s !< %s", prev, k)
			}
			prev = k
		}
	}
}
