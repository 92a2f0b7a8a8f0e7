package core

// RunExchange runs only the topology exchange (Algorithm 2 lines 1–2) on a
// Reset arena, for external tests that drive it with the adversary
// package's strategies.
func (w *World) RunExchange() { w.runExchange() }
