package core

// SyncPokes makes m's pokes a rendezvous with its sampler, for a test that
// must know a poke was handled: the returned func blocks until the sampler
// takes the poke, so a second call returns only once the first was handled.
// Call it before Start, and do not call m.Poke afterwards.
func SyncPokes(m *AsyncMonitor) func() {
	m.poke = make(chan struct{})
	return func() { m.poke <- struct{}{} }
}
