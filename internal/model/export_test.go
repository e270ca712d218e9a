package model

import "repro/internal/explore"

// WithRace returns opt with source-DPOR's race analysis set to m, so tests
// can walk the rebuild reference or the differential.
func WithRace(opt Options, m explore.RaceAnalysis) Options {
	opt.race = m
	return opt
}
