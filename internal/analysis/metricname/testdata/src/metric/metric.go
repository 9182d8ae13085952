// Package metric exercises the metricname analyzer's per-package rules
// against the real obs registry: prefix and charset conventions,
// single registration, and static resolvability of names — including
// the table-driven registration idiom, keyed and unkeyed.
package metric

import "eternalgw/internal/obs"

func direct(reg *obs.Registry) {
	reg.CounterFunc("eternalgw_corpus_good_total", "a well-formed name", nil, nil)
	reg.GaugeFunc("corpus_unprefixed", "missing the module prefix", nil, nil)           // want `does not start with "eternalgw_"`
	reg.CounterFunc("eternalgw_Corpus_bad_total", "uppercase is not allowed", nil, nil) // want `not lowercase`
	reg.CounterFunc("eternalgw_corpus_twice_total", "registered here...", nil, nil)
	reg.CounterFunc("eternalgw_corpus_twice_total", "...and here again", nil, nil) // want `registered more than once in this package`
}

type row struct {
	name string
	help string
	fn   func() uint64
}

func tables(reg *obs.Registry) {
	for _, c := range []row{
		{name: "eternalgw_corpus_keyed_total", help: "keyed row"},
		{name: "keyed_unprefixed_total", help: "keyed bad row"}, // want `does not start with "eternalgw_"`
	} {
		reg.CounterFunc(c.name, c.help, nil, c.fn)
	}
	for _, c := range []row{
		{"eternalgw_corpus_unkeyed_total", "unkeyed row", nil},
		{"unkeyed_unprefixed_total", "unkeyed bad row", nil}, // want `does not start with "eternalgw_"`
	} {
		reg.CounterFunc(c.name, c.help, nil, c.fn)
	}
}

// A name the analyzer cannot resolve statically is itself a finding.
func dynamic(reg *obs.Registry, name string) {
	reg.CounterFunc(name, "dynamically named", nil, nil) // want `not a resolvable string literal`
}

// The escape hatch works here like everywhere else.
func sanctioned(reg *obs.Registry, name string) {
	reg.CounterFunc(name, "forwarded from a config file", nil, nil) //lint:allow metricname bridge metric named by the operator's config
}
