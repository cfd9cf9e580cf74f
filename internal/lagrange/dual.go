package lagrange

// DualSite is one multiplier of a block: the candidate index it prices
// — every use site of that index within the block shares it, the
// (statement, index) linking constraint of relax(B) — and its value.
// Index is the candidate's position in the exporting model's numbering.
type DualSite struct {
	Index int32   `json:"index"`
	Value float64 `json:"value"`
}

// DualBlock is one block's multipliers under the block's label (the
// statement's stable ID), which is how a later solve finds them again
// across workload deltas.
type DualBlock struct {
	ID    string     `json:"id,omitempty"`
	Sites []DualSite `json:"sites"`
}

// Dual is the dual state of a solve, one DualBlock per model block in
// block order. It is the one form the state takes everywhere: what
// Solve returns (Result.Lambda) and accepts (Options.Warm), what a
// session keeps between solves, and — through its JSON tags — what the
// daemon writes to its WAL and snapshots. A Dual is immutable once
// returned: the solver copies out of it and never writes into it, so
// holders may share it freely. The empty Dual is a cold start.
type Dual []DualBlock

// Remap translates the dual state through a candidate renumbering:
// perm[old] is the new position of candidate old, or a negative value
// when the candidate was dropped — its sites are discarded. Positions
// beyond perm are likewise dropped. Block labels are preserved, so a
// compacted session still matches blocks across workload deltas. The
// receiver is unchanged.
func (d Dual) Remap(perm []int32) Dual {
	out := make(Dual, len(d))
	for bi, b := range d {
		sites := make([]DualSite, 0, len(b.Sites))
		for _, site := range b.Sites {
			if site.Index < 0 || int(site.Index) >= len(perm) || perm[site.Index] < 0 {
				continue
			}
			sites = append(sites, DualSite{Index: perm[site.Index], Value: site.Value})
		}
		out[bi] = DualBlock{ID: b.ID, Sites: sites}
	}
	return out
}
