// Package engine implements a cost-based query optimizer with a
// what-if interface: it costs SELECT statements under arbitrary
// hypothetical index configurations, the service CoPhy's INUM layer
// and the baseline advisors consume. The engine substitutes for the
// two commercial DBMS optimizers of the paper's evaluation; two cost
// profiles ("System-A", "System-B") with different constant weights
// reproduce the two ports (CoPhyA / CoPhyB).
//
// The optimizer performs textbook System-R optimization: per-table
// access-path selection (heap scan, index scan, index-only scan,
// clustered range scan, repeated index lookups), dynamic-programming
// join ordering with interesting orders, and sort- or hash-based
// grouping and ordering. Cardinalities derive from the catalog's
// histograms; costs are non-linear in the inputs (random-vs-sequential
// I/O, sort N·logN, memory spill thresholds), which is precisely the
// non-linearity that linear composability encodes into the β and γ
// constants (§3 of the paper).
package engine

import (
	"fmt"
	"strings"
)

// Profile holds the cost-model constants of one simulated DBMS.
// Different profiles change which plans win and by how much, emulating
// the porting of CoPhy across systems with minimal code differences.
type Profile struct {
	// Name labels the profile ("System-A", "System-B").
	Name string
	// SeqPageCost is the cost of reading one page sequentially.
	SeqPageCost float64
	// RandPageCost is the cost of reading one page randomly.
	RandPageCost float64
	// CPUTupleCost is the CPU cost of processing one tuple.
	CPUTupleCost float64
	// CPUIndexTupleCost is the CPU cost of processing one index entry.
	CPUIndexTupleCost float64
	// CPUOperatorCost is the CPU cost of one operator invocation
	// (comparison, hash, aggregate accumulation).
	CPUOperatorCost float64
	// MemoryPages is the number of pages available to sorts and hash
	// tables before they spill.
	MemoryPages int64
	// HashFudge scales hash-join build+probe costs; systems differ in
	// hash implementation efficiency.
	HashFudge float64
	// NLFudge scales nested-loop inner lookups, modeling systems that
	// discourage or favor index nested-loop joins.
	NLFudge float64
	// SortFudge scales sort costs.
	SortFudge float64
	// Correlation in [0,1] discounts heap fetches of secondary index
	// scans: 1 means perfectly clustered heap order (each fetch is
	// nearly sequential), 0 means a random page per matching row.
	Correlation float64
}

// SystemA returns the cost profile of the first simulated DBMS. Its
// constants resemble a disk-oriented engine with expensive random I/O
// and cheap hashing, so it favors hash joins and covering indexes.
func SystemA() Profile {
	return Profile{
		Name:              "System-A",
		SeqPageCost:       1.0,
		RandPageCost:      4.0,
		CPUTupleCost:      0.01,
		CPUIndexTupleCost: 0.005,
		CPUOperatorCost:   0.0025,
		MemoryPages:       4096,
		HashFudge:         1.0,
		NLFudge:           1.0,
		SortFudge:         1.0,
		Correlation:       0.15,
	}
}

// SystemB returns the cost profile of the second simulated DBMS: less
// punishing random I/O, pricier hashing and sorting, so index
// nested-loop joins and sorted access paths win more often. The same
// advisor code runs against both, mirroring CoPhy's portability claim.
func SystemB() Profile {
	return Profile{
		Name:              "System-B",
		SeqPageCost:       1.0,
		RandPageCost:      2.5,
		CPUTupleCost:      0.012,
		CPUIndexTupleCost: 0.004,
		CPUOperatorCost:   0.003,
		MemoryPages:       2048,
		HashFudge:         1.35,
		NLFudge:           0.6,
		SortFudge:         1.25,
		Correlation:       0.25,
	}
}

// SystemByName returns the profile a command-line -system flag names:
// "A" or "B", in either case.
func SystemByName(name string) (Profile, error) {
	switch strings.ToUpper(name) {
	case "A":
		return SystemA(), nil
	case "B":
		return SystemB(), nil
	}
	return Profile{}, fmt.Errorf("unknown system %q (want A or B)", name)
}
