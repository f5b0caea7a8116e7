package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"poise/internal/config"
	"poise/internal/profile"
	"poise/internal/results"
	"poise/internal/sim"
)

// The correctness gate. Every simulated result is reduced to one short
// digest per field group, so a mismatch names what moved. Expected
// digests for a set of seeds live in golden.json beside the benchmark
// (regenerate with -write-golden; regenerating is a declared behaviour
// change). For a seed with no expected digests, every pass must repeat
// the first pass's digests exactly.

//go:embed golden.json
var goldenJSON []byte

// goldenPath is golden.json relative to the checkout root, for
// -write-golden.
const goldenPath = "perfbench/golden.json"

// Field groups of a simulated workload result, in digest order.
var simGroups = []string{"totals", "per_kernel", "per_sm", "tuple_log"}

// Field groups of a profile.
var profileGroups = []string{"tuples", "points"}

// golden maps workload -> seed -> item -> dot-joined group digests.
type golden map[string]map[string]map[string]string

func loadGolden() (golden, error) {
	g := golden{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// short digests the canonical JSON encoding of v. encoding/json sorts
// map keys and prints floats in shortest round-trip form, so equal
// values always encode to equal bytes.
func short(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:4]), nil
}

func digestAll(vs ...any) ([]string, error) {
	out := make([]string, len(vs))
	for i, v := range vs {
		d, err := short(v)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// resultDigests digests a workload result by simGroups; extra is
// folded into the totals group (a cell's identity and displacement).
func resultDigests(r sim.WorkloadResult, extra any) ([]string, error) {
	totals := r
	totals.PerKernel = nil
	kernels := make([]sim.KernelResult, len(r.PerKernel))
	perSM := make([]any, len(r.PerKernel))
	tuples := make([]any, len(r.PerKernel))
	for i, k := range r.PerKernel {
		perSM[i], tuples[i] = k.PerSM, k.TupleLog
		k.PerSM, k.TupleLog = nil, nil
		kernels[i] = k
	}
	return digestAll([]any{totals, extra}, kernels, perSM, tuples)
}

// cellDigests digests one experiment-grid cell.
func cellDigests(c results.CellResult) ([]string, error) {
	id := struct {
		Tag, Grid, Workload, Digest, Scheme string
		Ord                                 int
		DispN, DispP, DispE                 float64
		HasDisp                             bool
	}{c.Tag, c.Grid, c.Workload, c.Digest, c.Scheme, c.Ord, c.DispN, c.DispP, c.DispE, c.HasDisp}
	return resultDigests(c.Result, id)
}

// profileDigests digests a profile's selected tuples (Best and the
// Eq. 12 BestScore with its score) and its swept point set.
func profileDigests(pr *profile.Profile, params config.PoiseParams) ([]string, error) {
	scored, score := pr.BestScore(params)
	return digestAll([]any{pr.Kernel, pr.MaxN, pr.Baseline, pr.Best(), scored, score}, pr.Points)
}

// gate checks a run's digests and counts failed operations.
type gate struct {
	workload string
	expect   map[string]string // item -> digests; nil when no golden
	first    map[string]string // item -> first pass digests

	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
}

func newGate(g golden, workload string, seed int64) *gate {
	return &gate{
		workload: workload,
		expect:   g[workload][strconv.FormatInt(seed, 10)],
		first:    map[string]string{},
	}
}

// hasGolden reports whether expected digests exist for this run.
func (g *gate) hasGolden() bool { return g.expect != nil }

// fail counts one failed operation.
func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	g.failed++
	if len(g.failures) < 20 {
		g.failures = append(g.failures, g.workload+": "+fmt.Sprintf(format, args...))
	}
}

// ok counts one operation that passed its checks.
func (g *gate) ok() {
	g.mu.Lock()
	g.attempted++
	g.mu.Unlock()
}

// check compares one item's group digests with the expected ones (or,
// without a golden entry, with the item's first-pass digests).
func (g *gate) check(item string, groups, digests []string, err error) {
	if err != nil {
		g.fail("%s: %v", item, err)
		return
	}
	got := strings.Join(digests, ".")
	g.mu.Lock()
	prev, seen := g.first[item]
	if !seen {
		g.first[item] = got
	}
	g.mu.Unlock()
	want, ok := g.expect[item]
	if g.expect == nil {
		want, ok = prev, seen
	}
	if g.expect != nil && !ok {
		g.fail("%s: no expected digest", item)
		return
	}
	if ok && want != got {
		g.fail("%s: %s moved", item, strings.Join(movedGroups(groups, want, got), ", "))
		return
	}
	g.ok()
}

// movedGroups names the groups whose digests differ.
func movedGroups(groups []string, want, got string) []string {
	w, h := strings.Split(want, "."), strings.Split(got, ".")
	var moved []string
	for i, name := range groups {
		if i >= len(w) || i >= len(h) || w[i] != h[i] {
			moved = append(moved, name)
		}
	}
	return moved
}

// writeGolden merges this run's first-pass digests into golden.json.
func (g *gate) writeGolden(seed int64) error {
	all := golden{}
	if data, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", goldenPath, err)
		}
	}
	if all[g.workload] == nil {
		all[g.workload] = map[string]map[string]string{}
	}
	all[g.workload][strconv.FormatInt(seed, 10)] = g.first
	// One line per workload and seed keeps diffs reviewable.
	var b strings.Builder
	b.WriteString("{\n")
	wls := sortedKeys(all)
	for i, wl := range wls {
		fmt.Fprintf(&b, "  %q: {\n", wl)
		seeds := sortedKeys(all[wl])
		sort.Slice(seeds, func(a, c int) bool {
			x, _ := strconv.Atoi(seeds[a])
			y, _ := strconv.Atoi(seeds[c])
			return x < y
		})
		for j, s := range seeds {
			line, err := json.Marshal(all[wl][s])
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "    %q: %s%s\n", s, line, comma(j < len(seeds)-1))
		}
		fmt.Fprintf(&b, "  }%s\n", comma(i < len(wls)-1))
	}
	b.WriteString("}\n")
	tmp := goldenPath + ".tmp"
	if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, goldenPath)
}

func comma(more bool) string {
	if more {
		return ","
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
