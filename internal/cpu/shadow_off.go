//go:build !invariants

package cpu

// gateShadow is the disabled build of the replay-gate shadow check: a
// zero-size field on CPU whose no-op methods inline away. Build with
// -tags invariants to enable the re-walk cross-check in shadow_on.go.
type gateShadow struct{}

func (gateShadow) armed() bool { return false }

func (gateShadow) check(now, predicted uint64, issued int, refused uint64) {}
