package gridplan

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"
)

func cellPlanForTest(workloads, schemes int) *CellPlan {
	p := &CellPlan{Version: PlanVersion}
	for w := 0; w < workloads; w++ {
		for s := 0; s < schemes; s++ {
			p.Cells = append(p.Cells, CellTask{
				Tag: "cfg", Grid: "scheme", Workload: fmt.Sprintf("wl%02d", w),
				Digest: fmt.Sprintf("d%02d", w), Scheme: fmt.Sprintf("s%d", s), Ord: s,
			})
		}
	}
	return p
}

func TestCellPlanValidate(t *testing.T) {
	p := cellPlanForTest(3, 4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	dup := cellPlanForTest(2, 2)
	dup.Cells = append(dup.Cells, dup.Cells[0])
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate cell must fail validation")
	}
	bad := cellPlanForTest(2, 2)
	bad.Cells[0].Workload = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("cell without a workload must fail validation")
	}
	// Two ordinals for one scheme within a grid is inconsistent.
	ord := cellPlanForTest(2, 2)
	ord.Cells[2].Ord = 5
	if err := ord.Validate(); err == nil {
		t.Fatal("inconsistent scheme ordinal must fail validation")
	}
	// Two schemes sharing one ordinal is inconsistent too.
	shared := cellPlanForTest(1, 2)
	shared.Cells[1].Ord = 0
	if err := shared.Validate(); err == nil {
		t.Fatal("two schemes on one ordinal must fail validation")
	}
}

func TestCellPlanJSONLRoundTrip(t *testing.T) {
	p := cellPlanForTest(3, 5)
	var buf bytes.Buffer
	if err := WriteCellPlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCellPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatal("cell plan round trip lost data")
	}
	// Cell plans and profile plans must not be confused for each other.
	if _, err := ReadPlan(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("ReadPlan accepted a cell plan")
	}
	var pbuf bytes.Buffer
	if err := WritePlan(&pbuf, planForTest(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCellPlan(bytes.NewReader(pbuf.Bytes())); err == nil {
		t.Fatal("ReadCellPlan accepted a profile plan")
	}
}

func TestCellPlanShardPartition(t *testing.T) {
	p := cellPlanForTest(4, 5)
	for _, n := range []int{1, 2, 3, 7} {
		seen := map[string]int{}
		total := 0
		for i := 0; i < n; i++ {
			s, err := Shard(p.Cells, i, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range s {
				seen[c.Key()]++
				total++
			}
		}
		if total != len(p.Cells) {
			t.Fatalf("n=%d: shards cover %d cells, plan has %d", n, total, len(p.Cells))
		}
		for k, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: cell %s appears in %d shards", n, k, c)
			}
		}
	}
	if _, err := Shard(p.Cells, -1, 2); err == nil {
		t.Fatal("negative shard index must fail")
	}
	if _, err := Shard(p.Cells, 2, 2); err == nil {
		t.Fatal("out-of-range shard index must fail")
	}
	if _, err := Shard(p.Cells, 0, 0); err == nil {
		t.Fatal("zero shard count must fail")
	}
}

// TestCellKeyPreservesSchemeOrder pins the property the ordinal field
// exists for: after a key sort, each workload's cells appear in the
// grid's documented scheme order, not alphabetic scheme-name order.
func TestCellKeyPreservesSchemeOrder(t *testing.T) {
	p := &CellPlan{}
	schemes := []string{"GTO", "SWL", "PCAL-SWL", "Poise", "Static-Best"}
	for ord, s := range schemes {
		p.Cells = append(p.Cells, CellTask{Tag: "c", Grid: "scheme", Workload: "w", Scheme: s, Ord: ord})
	}
	p.Sort()
	for ord, s := range schemes {
		if p.Cells[ord].Scheme != s {
			t.Fatalf("after sort, position %d holds %s, want %s (documented order)", ord, p.Cells[ord].Scheme, s)
		}
	}
}

func TestPlanFileFormatSniffs(t *testing.T) {
	dir := t.TempDir()
	cell := dir + "/cells.jsonl"
	var cells, plan bytes.Buffer
	if err := WriteCellPlan(&cells, cellPlanForTest(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cell, cells.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	prof := dir + "/plan.jsonl"
	if err := WritePlan(&plan, planForTest(4)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(prof, plan.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if f, err := PlanFileFormat(cell); err != nil || f != CellPlanFormat {
		t.Fatalf("cell plan format = %q, %v", f, err)
	}
	if f, err := PlanFileFormat(prof); err != nil || f != ProfilePlanFormat {
		t.Fatalf("profile plan format = %q, %v", f, err)
	}
	if _, err := PlanFileFormat(dir + "/missing.jsonl"); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestSplitFiles is the shard-flag validation table both commands'
// -merge-shards lists go through: empty and all-blank lists are
// rejected instead of silently merging zero shards.
func TestSplitFiles(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
		ok   bool
	}{
		{"a.jsonl", []string{"a.jsonl"}, true},
		{"a.jsonl,b.jsonl", []string{"a.jsonl", "b.jsonl"}, true},
		{" a.jsonl , b.jsonl ,", []string{"a.jsonl", "b.jsonl"}, true},
		{"", nil, false},
		{",", nil, false},
		{" , , ", nil, false},
	} {
		got, err := SplitFiles(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("SplitFiles(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitFiles(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
