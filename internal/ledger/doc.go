// Package ledger holds the progress ledger: the flat, cache-friendly block
// of per-plan-node atomic runtime counters that decouples progress
// accounting from the operator tree. At compile time every plan node is
// assigned a stable dense NodeID (pre-order position); at run time the
// node's operator writes its slot through a handle, and estimators, bounds
// passes, and the serving layer read slots by ID — no operator-tree walk
// ever happens on the sample path.
//
// The package sits below the executor (it imports only sync/atomic) so
// both exec and core can share the slot layout without a dependency cycle.
//
// The ledger is a node's only counter set. exec.EnsureLedger binds every
// node to its slot before the plan is opened and before any reader looks
// at it; nothing counts anywhere else, so nothing is ever carried over.
//
// # The single-writer discipline
//
// A ledger has one writer goroutine for all of its slots: the one that runs
// the plan and answers its nodes' GetNext calls. Readers — samplers, the
// bounds pass, the SSE streamer — run on goroutines of their own, and are
// unrestricted and lock-free.
//
// # The snapshot load-ordering protocol
//
// Snapshot loads done first and rescans last (returned/delivered in
// between). This ordering gives the one exactness property the bounds pass
// relies on: if a snapshot shows Done && Rescans == 0, its Returned is
// exactly the node's final count. Writers must therefore (a) store counter
// increments before setting done, and (b) bump rescans before clearing
// done or producing new rows on a re-open — which is exactly what
// MarkRescan/ClearDone are for. A torn read can only misclassify a final
// count as still-running, never the reverse, so bounds derived from
// snapshots stay sound under any interleaving.
package ledger
