//go:build !invariants

package cpu

import "burstmem/internal/cache"

// gateShadow is the disabled build of the replay- and store-gate shadow
// checks: a zero-size field on CPU whose no-op methods inline away. Build
// with -tags invariants to enable the re-walk and re-probe cross-checks in
// shadow_on.go.
type gateShadow struct{}

func (gateShadow) armed() bool { return false }

func (gateShadow) check(now, predicted uint64, issued int, refused uint64) {}

func (gateShadow) checkStore(now uint64, res cache.Result) {}
