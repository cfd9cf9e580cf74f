package inum

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// derivationDigest hashes every published template of w's shapes, in
// order of each shape's first statement: per shape, each template's β
// bits and every slot field (table, mode, each order column as
// "table.col", join column, Lookups bits, need columns), then the
// shape's distinct-slot numbering (refs, tmplOff). It returns the hex
// digest and the number of templates hashed.
func derivationDigest(c *Cache, w *workload.Workload) (string, int) {
	h := sha256.New()
	str := func(s string) { fmt.Fprintf(h, "%d:%s", len(s), s) }
	seen := map[*shapeEntry]bool{}
	templates := 0
	for _, st := range w.Queries() {
		qi := c.PrepareQuery(st.Query)
		en := qi.shape
		if seen[en] {
			continue
		}
		seen[en] = true
		word(h, uint64(len(en.templates)))
		for _, t := range en.templates {
			templates++
			word(h, math.Float64bits(t.Internal))
			word(h, uint64(len(t.Slots)))
			for _, s := range t.Slots {
				str(s.Table)
				word(h, uint64(s.Mode))
				word(h, uint64(len(s.RequiredOrder)))
				for _, col := range s.RequiredOrder {
					str(fmt.Sprint(col))
				}
				str(s.JoinCol)
				word(h, math.Float64bits(s.Lookups))
				word(h, uint64(len(s.NeedCols)))
				for _, col := range s.NeedCols {
					str(col)
				}
			}
		}
		word(h, uint64(len(en.refs)))
		for _, r := range en.refs {
			word(h, uint64(r))
		}
		for _, o := range en.tmplOff {
			word(h, uint64(o))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), templates
}

func word(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// TestDerivationGolden pins the derived templates of a fixed hom and a
// fixed het workload to the bit: a change to the join DP, the
// derivation walk, the duplicate-template test or prune that moves any
// β, slot field or slot numbering fails here.
func TestDerivationGolden(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	hom := workload.Hom(workload.HomConfig{Queries: 1000, Seed: 672})
	het := workload.Het(workload.HetConfig{Queries: 300, Seed: 672})
	for _, tc := range []struct {
		name      string
		prof      engine.Profile
		w         *workload.Workload
		templates int
		digest    string
	}{
		{"hom-1000 A", engine.SystemA(), hom, 3212, "e558b4a3f16d99216d4be924675250efde87870b0601c29c10f1fc108ce3c356"},
		{"het-300 A", engine.SystemA(), het, 1345, "5879d8a6109a9eb42404ecdc2a5f24f31b2940329be64c31c0aeb67a842cb6f4"},
		{"hom-1000 B", engine.SystemB(), hom, 3467, "b77303e1fb4bd7380ab7945f1f150f8d02a4aadd95858b16b50cdd048a70a112"},
		{"het-300 B", engine.SystemB(), het, 1435, "4b8a079831a9649b1ae930ea4daf8e3d0036f4f8badb343beb0140c78162a69f"},
	} {
		got, n := derivationDigest(New(engine.New(cat, tc.prof)), tc.w)
		if n != tc.templates || got != tc.digest {
			t.Errorf("%s: %d templates, digest %s; want %d, %s", tc.name, n, got, tc.templates, tc.digest)
		}
	}
}
