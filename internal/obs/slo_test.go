package obs

import (
	"strings"
	"testing"
	"time"
)

// TestParseObjectives covers the accepted grammar, aliases,
// canonicalization, and rejection of malformed input.
func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("recommend.p99<=250ms, error_rate<1%,shed<5%")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("want 3 objectives, got %d", len(objs))
	}
	lat := objs[0]
	if lat.Kind != KindLatency || lat.Endpoint != "recommend" || lat.Quantile != 0.99 || lat.Limit != 250*time.Millisecond {
		t.Fatalf("latency objective wrong: %+v", lat)
	}
	if got := lat.String(); got != "recommend.p99<=250ms" {
		t.Fatalf("canonical form %q", got)
	}
	if objs[1].Rate != "error_rate" || objs[1].MaxRate != 0.01 {
		t.Fatalf("error_rate objective wrong: %+v", objs[1])
	}
	// The shed alias canonicalizes to shed_rate.
	if objs[2].Rate != "shed_rate" || objs[2].MaxRate != 0.05 {
		t.Fatalf("shed alias wrong: %+v", objs[2])
	}
	if got := objs[2].String(); got != "shed_rate<=5%" {
		t.Fatalf("shed canonical form %q", got)
	}

	// Newlines and comments.
	objs, err = ParseObjectives("# latency budget\nwhatif.p95 < 10ms\n\nerrors=0.02 # inline\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 || objs[0].Endpoint != "whatif" || objs[0].Quantile != 0.95 || objs[1].MaxRate != 0.02 {
		t.Fatalf("file-format parse wrong: %+v", objs)
	}

	// p999 and bare-fraction rates.
	objs, err = ParseObjectives("ingest.p999<1s,shed_rate<0.5%")
	if err != nil {
		t.Fatal(err)
	}
	if objs[0].Quantile != 0.999 || objs[1].MaxRate != 0.005 {
		t.Fatalf("p999/fraction parse wrong: %+v", objs)
	}

	for _, bad := range []string{
		"recommend.p99",                        // no operator
		"recommend.p99<=banana",                // bad duration
		"recommend.p99<=-5ms",                  // negative limit
		"p99<=250ms",                           // no endpoint
		"recommend.q99<=250ms",                 // bad quantile prefix
		"recommend.p0<=250ms",                  // quantile 0
		"error_rate<150%",                      // rate ≥ 1
		"error_rate<0",                         // rate ≤ 0
		"bogus<=5ms",                           // unknown name, no dot
		"shed<5%,shed_rate<=5%",                // duplicate after aliasing
		"recommend.p99<=1ms,recommend.p99<1ms", // duplicate after op canonicalization
	} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Fatalf("accepted malformed %q", bad)
		}
	}
}

// TestFlightRecorder covers slowest-K retention, shed/error event
// capture with FIFO overflow, span copying, and nil safety.
func TestFlightRecorder(t *testing.T) {
	f := NewFlightRecorder(2, 3)
	base := time.Unix(1000, 0)

	// Five OK requests on one endpoint: only the slowest two survive.
	for i, ms := range []int{5, 40, 10, 30, 20} {
		tr := NewTrace()
		tr.Add("solve", time.Duration(ms)*time.Millisecond)
		f.Note("recommend", 200, base.Add(time.Duration(i)*time.Second), time.Duration(ms)*time.Millisecond, tr)
	}
	dump := f.Dump()
	slow := dump.Slowest["recommend"]
	if len(slow) != 2 || slow[0].Millis != 40 || slow[1].Millis != 30 {
		t.Fatalf("slowest-K wrong: %+v", slow)
	}
	if slow[0].Reason != "slow" || slow[0].Status != 200 {
		t.Fatalf("slow entry wrong: %+v", slow[0])
	}
	if len(slow[0].Spans) != 1 || slow[0].Spans[0].Name != "solve" || slow[0].Spans[0].Millis != 40 {
		t.Fatalf("span breakdown wrong: %+v", slow[0].Spans)
	}
	if slow[0].TraceID == "" {
		t.Fatal("trace ID missing")
	}

	// Endpoints are independent rings.
	f.Note("whatif", 200, base, 2*time.Millisecond, nil)
	if got := f.Dump().Slowest["whatif"]; len(got) != 1 || len(got[0].Spans) != 0 {
		t.Fatalf("whatif ring wrong: %+v", got)
	}

	// Sheds and errors go to the event ring regardless of latency, and
	// the ring drops oldest-first past its cap.
	f.Note("recommend", 429, base, time.Millisecond, nil)
	f.Note("recommend", 500, base, time.Millisecond, nil)
	f.Note("ingest", 503, base, time.Millisecond, nil)
	f.Note("recommend", 429, base, time.Millisecond, nil) // evicts the first shed
	ev := f.Dump().Events
	if len(ev) != 3 {
		t.Fatalf("event ring size %d, want 3", len(ev))
	}
	if ev[0].Reason != "error" || ev[0].Status != 500 {
		t.Fatalf("oldest surviving event wrong: %+v", ev[0])
	}
	if ev[2].Reason != "shed" || ev[2].Status != 429 {
		t.Fatalf("newest event wrong: %+v", ev[2])
	}
	// A 429 must not occupy a slowest-K slot.
	for _, e := range f.Dump().Slowest["recommend"] {
		if e.Status == 429 {
			t.Fatalf("shed request leaked into slowest ring: %+v", e)
		}
	}

	// Nil recorder: no-ops, empty dump.
	var nilF *FlightRecorder
	nilF.Note("x", 200, base, time.Second, nil)
	nd := nilF.Dump()
	if len(nd.Slowest) != 0 || len(nd.Events) != 0 {
		t.Fatal("nil recorder must dump empty")
	}
}

// TestObjectiveCanonicalRoundTrip keeps the verdict lines honest: the
// canonical string round-trips through ParseObjective.
func TestObjectiveCanonicalRoundTrip(t *testing.T) {
	for _, s := range []string{
		"recommend.p99<=250ms",
		"whatif.p50<=1ms",
		"ingest.p999<=1s",
		"error_rate<=1%",
		"shed_rate<=5%",
	} {
		o, err := ParseObjective(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got := o.String(); got != s {
			t.Fatalf("canonical %q re-rendered as %q", s, got)
		}
		o2, err := ParseObjective(o.String())
		if err != nil || o2 != o {
			t.Fatalf("round-trip lost data: %+v vs %+v (%v)", o, o2, err)
		}
	}
	if !strings.Contains(Objective{Kind: KindRate, Rate: "error_rate", MaxRate: 0.015}.String(), "1.5%") {
		t.Fatal("fractional percent must render exactly")
	}
}
