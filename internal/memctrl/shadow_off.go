//go:build !invariants

package memctrl

// engineShadow is the disabled build of the next-event shadow checker: a
// zero-size field on Engine whose no-op method inlines away. Build with
// -tags invariants to enable the hint-vs-linear-scan cross-check in
// shadow_on.go.
type engineShadow struct{}

func (engineShadow) checkNextEvent(e *Engine, now, fast uint64) {}
