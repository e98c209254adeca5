package coretest

import (
	"testing"

	"sqlprogress/internal/exec"
)

// TestCreditReads holds every read a sampler can take to the paper's bounds,
// over the invariant corpus and the paged corpus, the latter built both in
// memory and over heap files.
func TestCreditReads(t *testing.T) {
	for _, e := range Corpus() {
		t.Run(e.Label, func(t *testing.T) { CheckCreditReads(t, e.Label, e.Build) })
	}
	mem, paged := twinCatalogs(t)
	for _, e := range PagedCorpus() {
		t.Run(e.Label+"/memory", func(t *testing.T) {
			CheckCreditReads(t, e.Label+"/memory", func() exec.Operator { return e.Build(mem) })
		})
		t.Run(e.Label+"/paged", func(t *testing.T) {
			CheckCreditReads(t, e.Label+"/paged", func() exec.Operator { return e.Build(paged) })
		})
	}
}
