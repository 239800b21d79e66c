//go:build !invariants

package memctrl

// engineShadow is the disabled build of the engine's shadow checks: a
// zero-size field on Engine whose no-op methods inline away. Build with
// -tags invariants to enable the hint-vs-linear-scan cross-checks in
// shadow_on.go.
type engineShadow struct{}

func (engineShadow) checkNextEvent(e *Engine, now, fast uint64) {}

func (engineShadow) checkUnblocked(e *Engine, now uint64, any bool) {}
