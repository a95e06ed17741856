// Package difftest is the repository's one differential harness. It has
// no non-test code: its tests hold every byte-identity claim the
// executors make — pool modes, worker counts, installed kernels against
// the scalar references, a live metrics registry against a nil one,
// tenant multiplexing, the adversary boundary's forwarded output against
// its expanded form, the Lockstep networked cluster against the engine,
// and the shared coin layout against the paper's — as rows of one table
// of seeded configs crossed with named variants.
//
// Every cell runs one executor over one config and compares the run's
// canonical trace (per beat: honest clocks or ⊥, phase-3 rand bits and a
// digest of every node's inbox; at the end: the message and byte
// counters) with the config's oracle, the plain single-engine run,
// which is computed once per test process and shared by every variant.
//
// Run it with `go test ./internal/difftest/`; cells are subtests named
// TestDifferential/<config>/<variant>, so `-run` selects by either part,
// e.g. `-run 'TestDifferential//^lockstep-'` for every Lockstep cell.
package difftest
