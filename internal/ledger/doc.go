// Package ledger holds the progress ledger: the flat, cache-friendly block
// of per-plan-node runtime counters that decouples progress accounting from
// the operator tree. At compile time every plan node is assigned a stable
// dense NodeID (pre-order position); at run time the node's operator writes
// its slot through a handle, and estimators, bounds passes, and the serving
// layer read slots by ID — no operator-tree walk ever happens on the sample
// path.
//
// The package sits below the executor (it imports nothing) so both exec and
// core can share the slot layout without a dependency cycle.
//
// The ledger is a node's only counter set. exec.EnsureLedger binds every
// node to its slot before the plan is opened and before any reader looks
// at it; nothing counts anywhere else, so nothing is ever carried over.
//
// # One goroutine
//
// A ledger is written and read on one goroutine: the one that runs the plan
// and answers its nodes' GetNext calls. A sampler reads it at a credit, from
// the executor's sampling trigger, or once the run has returned; so every
// read is the whole plan at one instant, and no read can be torn. Its slots
// are plain fields.
package ledger
