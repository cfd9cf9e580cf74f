// Package metricname exercises the metricname analyzer against the
// real obs.Registry: cophyd_* naming, the counter _total suffix, and
// kind-consistent registration.
package metricname

import "repro/internal/obs"

func register(reg *obs.Registry) {
	reg.Counter("cophyd_good_things_total", "a well-named counter")
	reg.Gauge("cophyd_queue_depth", "a well-named gauge")
	reg.Histogram("cophyd_solve_seconds", "a well-named histogram", obs.L("endpoint", "recommend"))
	reg.CounterFunc("cophyd_derived_total", "a well-named derived counter", func() float64 { return 0 })

	reg.Counter("cophyd_bad_things", "counter missing its suffix")                                      // want "must end in _total"
	reg.GaugeFunc("cophyd_bad_total", "gauge claiming the counter suffix", func() float64 { return 0 }) // want "must not end in _total"
	reg.Counter("queue_depth_total", "name outside the namespace")                                      // want "naming contract"
	reg.Histogram("cophyd_Bad_seconds", "upper case breaks the contract")                               // want "naming contract"
}

func duplicate(reg *obs.Registry) {
	reg.Histogram("cophyd_dup_seconds", "first registration wins the kind")
	reg.Gauge("cophyd_dup_seconds", "same name, different kind") // want "already registered as a histogram"

	name := "cophyd_dynamic_total"
	reg.Counter(name, "computed names are invisible to static checks") // want "string literal"
}
