package gridplan

import "fmt"

// The experiment-cell task kind. A profile Task is one {N, p} point of
// one kernel's sweep; a CellTask is one cell of a workload × scheme
// experiment grid — "run workload W under scheme S" — the unit behind
// the paper's Fig. 7/8/9 comparison and the sensitivity figures. Like
// Tasks, cells are content-digested and key-ordered, so a grid
// campaign shards across processes and merges back bit-identically to
// the in-process run.

// CellTask is one serialisable experiment cell: run workload Workload
// under the scheme (or altered configuration) named Scheme, within the
// experiment grid Grid. Tag identifies the full harness configuration
// (the results-cache key — all processes of one campaign must agree on
// it, and a worker verifies its own tag against the plan's before
// simulating). Digest fingerprints the workload's kernels so a drifted
// catalogue is refused rather than silently producing wrong cells.
type CellTask struct {
	Tag      string `json:"tag"`      // configuration/results-cache tag
	Grid     string `json:"grid"`     // experiment grid name (scheme, stride, ...)
	Workload string `json:"workload"` // workload name, resolved via the catalogue
	Digest   string `json:"digest"`   // workload content digest
	Scheme   string `json:"scheme"`   // point on the grid's scheme/config axis
	Ord      int    `json:"ord"`      // scheme ordinal in the grid's documented order
	Seed     int64  `json:"seed,omitempty"`
}

// Key is the cell's stable ordering and identity key. The zero-padded
// scheme ordinal keeps lexicographic order equal to the grid's
// documented scheme order (e.g. SchemeNames order for the scheme
// grid), not alphabetic scheme-name order. Validate bounds ordinals
// to the padding width, so the order can never silently break.
func (t CellTask) Key() string {
	return fmt.Sprintf("%s|%s|%s|%03d|%s", t.Tag, t.Grid, t.Workload, t.Ord, t.Scheme)
}

// maxOrd is the largest scheme ordinal Key's zero-padding keeps in
// lexicographic order.
const maxOrd = 999

// CellPlan is an ordered set of experiment cells — typically one
// figure's full workload × scheme grid. Builders enumerate cells
// workload-major (every scheme of the first workload, then the next
// workload), with schemes in the grid's documented axis order.
type CellPlan struct {
	Version int        `json:"version"`
	Cells   []CellTask `json:"-"`
}

// Sort orders the cells by key (stable identity order).
func (p *CellPlan) Sort() { sortKeyed(p.Cells) }

// Validate reports duplicate cell keys, malformed cells, and
// inconsistent scheme ordinals (two ordinals for one scheme, or two
// schemes sharing an ordinal, within one grid).
func (p *CellPlan) Validate() error {
	seen := map[string]bool{}
	ordOf := map[string]int{}       // grid|scheme -> ord
	schemeAt := map[string]string{} // grid|ord -> scheme
	for _, c := range p.Cells {
		if c.Grid == "" || c.Workload == "" || c.Scheme == "" {
			return fmt.Errorf("gridplan: cell %s lacks grid, workload or scheme", c.Key())
		}
		if c.Ord < 0 || c.Ord > maxOrd {
			return fmt.Errorf("gridplan: cell %s scheme ordinal %d outside [0,%d]", c.Key(), c.Ord, maxOrd)
		}
		k := c.Key()
		if seen[k] {
			return fmt.Errorf("gridplan: duplicate cell %s", k)
		}
		seen[k] = true
		sk := c.Grid + "|" + c.Scheme
		if o, ok := ordOf[sk]; ok && o != c.Ord {
			return fmt.Errorf("gridplan: scheme %s of grid %s has ordinals %d and %d", c.Scheme, c.Grid, o, c.Ord)
		}
		ordOf[sk] = c.Ord
		ok := fmt.Sprintf("%s|%03d", c.Grid, c.Ord)
		if s, dup := schemeAt[ok]; dup && s != c.Scheme {
			return fmt.Errorf("gridplan: grid %s ordinal %d names schemes %s and %s", c.Grid, c.Ord, s, c.Scheme)
		}
		schemeAt[ok] = c.Scheme
	}
	return nil
}
