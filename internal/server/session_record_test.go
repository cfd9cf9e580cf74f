package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lagrange"
	"repro/internal/workload"
)

// dualBits mirrors a dual state with each value as its IEEE-754 bits,
// so reflect.DeepEqual compares bit for bit (NaN included). The nil
// Dual stays nil; a block's nil and empty site lists both mean no sites.
func dualBits(d lagrange.Dual) [][]string {
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

// TestDualWireRoundTrip: a dual state comes back bit for bit from its
// packed text, and from a session record that carries it through
// encoding/json — signed zeros, NaN payloads, infinities, subnormals,
// extreme and negative indexes, an empty ID and a block without sites
// included. A nil dual state is left out of the record and reads back
// as nil.
func TestDualWireRoundTrip(t *testing.T) {
	odd := lagrange.Dual{
		{ID: "stream-000001", Sites: []lagrange.DualSite{
			{Index: 0, Value: math.Copysign(0, -1)},
			{Index: math.MaxInt32, Value: math.Float64frombits(0x7ff8000000000001)},
			{Index: -1, Value: math.Float64frombits(0xfff00000deadbeef)},
			{Index: math.MinInt32, Value: math.Inf(1)},
			{Index: 7, Value: math.Inf(-1)},
			{Index: 8, Value: math.SmallestNonzeroFloat64},
			{Index: 9, Value: math.Float64frombits(0x800fffffffffffff)},
			{Index: 10, Value: 0},
			{Index: 11, Value: 2942.3039825024134},
		}},
		{ID: "", Sites: []lagrange.DualSite{{Index: 3, Value: 1}}},
		{ID: "no-sites", Sites: []lagrange.DualSite{}},
	}
	for name, d := range map[string]lagrange.Dual{"odd values": odd, "no blocks": {}, "nil": nil} {
		text, err := d.MarshalText()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var direct lagrange.Dual
		if err := direct.UnmarshalText(text); err != nil {
			t.Fatalf("%s: own text %q rejected: %v", name, text, err)
		}
		if !reflect.DeepEqual(dualBits(direct), dualBits(d)) {
			t.Fatalf("%s: packed text decoded to %+v, want %+v", name, direct, d)
		}

		rec, err := json.Marshal(sessionState{BudgetFraction: 0.5, Candidates: []IndexSpec{{Table: "orders", Key: []string{"o_orderdate"}}}, Duals: d, Gap: 0.01})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if omitted := !strings.Contains(string(rec), `"duals"`); omitted != (len(d) == 0) {
			t.Fatalf("%s: record %s (duals omitted: %v)", name, rec, omitted)
		}
		var back sessionState
		if err := json.Unmarshal(rec, &back); err != nil {
			t.Fatalf("%s: record %s rejected: %v", name, rec, err)
		}
		want := d
		if len(d) == 0 {
			want = nil // omitempty drops an empty state; it reads back as none
		}
		if !reflect.DeepEqual(dualBits(back.Duals), dualBits(want)) {
			t.Fatalf("%s: session record decoded to %+v, want %+v", name, back.Duals, want)
		}
	}
}

// parentDualJSON writes d by hand in the array form older binaries
// wrote, optionally with the per-site "choice"/"slot" keys of the form
// before that.
func parentDualJSON(d lagrange.Dual, choiceSlot bool) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for bi, b := range d {
		if bi > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"id":%q,"sites":[`, b.ID)
		for k, s := range b.Sites {
			if k > 0 {
				sb.WriteByte(',')
			}
			sb.WriteByte('{')
			if choiceSlot {
				sb.WriteString(`"choice":-1,"slot":-1,`)
			}
			fmt.Fprintf(&sb, `"index":%d,"value":%s}`, s.Index, strconv.FormatFloat(s.Value, 'g', -1, 64))
		}
		sb.WriteString("]}")
	}
	sb.WriteByte(']')
	return sb.String()
}

// parentSessionJSON renders st as a session object whose duals are
// written in a parent array form.
func parentSessionJSON(t *testing.T, st *sessionState, choiceSlot bool) string {
	t.Helper()
	rest := *st
	rest.Duals = nil
	raw, err := json.Marshal(rest)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw[:len(raw)-1]) + `,"duals":` + parentDualJSON(st.Duals, choiceSlot) + `}`
}

// TestRecoverParentFormatSessionRecords: a data directory written by a
// binary that stored dual states as arrays — a snapshot whose session
// sites still carry choice/slot keys, and a WAL tail whose session
// record does not — recovers a warm session holding exactly the dual
// state written last, and the snapshot's alone recovers to its own.
func TestRecoverParentFormatSessionRecords(t *testing.T) {
	d1 := durableDaemon(t, t.TempDir(), nil)
	srv1 := httptest.NewServer(d1.Handler())
	defer srv1.Close()
	post(t, srv1, "/ingest", ingestRequest{SQL: renderSQL(workload.Hom(workload.HomConfig{Queries: 20, Seed: 17}))}, nil)
	recommend := func(budget float64) *sessionState {
		var rec RecommendResult
		if resp := post(t, srv1, "/recommend", RecommendOptions{BudgetFraction: budget}, &rec); resp.StatusCode != http.StatusOK {
			t.Fatalf("gen1 recommend: status %d", resp.StatusCode)
		}
		st := d1.sessionStateLocked(budget)
		if st == nil || len(st.Duals) == 0 {
			t.Fatal("fixture broken: generation 1 exported no dual state")
		}
		return st
	}
	inSnapshot, inTail := recommend(0.5), recommend(0.3)
	if reflect.DeepEqual(inSnapshot.Duals, inTail.Duals) {
		t.Fatal("fixture broken: both recommendations left the same dual state")
	}
	stream, err := json.Marshal(d1.stream.Export())
	if err != nil {
		t.Fatal(err)
	}
	snapshot := fmt.Sprintf(`{"schema":1,"stream":%s,"ingested":%d,"session":%s}`,
		stream, d1.ingested.Load(), parentSessionJSON(t, inSnapshot, true))
	tail := `{"type":"session","session":` + parentSessionJSON(t, inTail, false) + `}`

	for name, c := range map[string]struct {
		records []string
		want    lagrange.Dual
	}{
		"snapshot":          {nil, inSnapshot.Duals},
		"snapshot+WAL tail": {[]string{tail}, inTail.Duals},
	} {
		dir := t.TempDir()
		writeSnapshotPayload(t, dir, []byte(snapshot), c.records...)

		d2 := durableDaemon(t, dir, nil)
		if st := d2.Snapshot(); st.Recovery == nil || !st.Recovery.WarmSession || st.Recovery.ReplayedRecords != len(c.records) {
			t.Fatalf("%s: recovery %+v", name, st.Recovery)
		}
		if got := d2.session.ExportState().Duals; !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: recovered a dual state other than the one written", name)
		}
		waitFor(t, "background warm-up to finish", func() bool { return !d2.warming.Load() })
	}
}
