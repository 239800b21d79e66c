//go:build invariants

package cpu

import (
	"fmt"

	"burstmem/internal/cache"
)

// This file is the enabled build of the replay- and store-gate shadow
// checks (build with -tags invariants).
//
// A holding replay gate does not charge its recorded refusals or visit its
// woken load alone: replay walks anyway, and the walk, setting aside the
// woken loads' own visits, must issue nothing and be refused exactly the
// predicted number of times. Otherwise a cache answer changed while its
// Version stood still, or a woken load's visit changed another load's
// answer, and the default build would have charged refusals for loads that
// could issue, so the check panics, cycle-stamped.
//
// A holding store gate does not charge its refusal: drainStores probes the
// gated store anyway, and the L1D must refuse it. Otherwise its answer
// changed while its Version stood still, and the default build would have
// charged a refusal for a store that could issue, so the check panics,
// cycle-stamped.
//
// The probes count the refusals themselves, so results match the default
// build whenever the checks pass.

// gateShadow is the enabled gate shadow check.
type gateShadow struct{}

func (gateShadow) armed() bool { return true }

func (gateShadow) check(now, predicted uint64, issued int, refused uint64) {
	if issued != 0 || refused != predicted {
		panic(fmt.Sprintf(
			"cpu sanitizer: cycle %d: closed replay gate predicted %d refusals and no issue, but the walk issued %d loads and was refused %d times, woken loads aside (a cache answer changed while its Version stood still, or a woken load's visit changed another load's answer)",
			now, predicted, issued, refused))
	}
}

func (gateShadow) checkStore(now uint64, res cache.Result) {
	if res != cache.Blocked {
		panic(fmt.Sprintf(
			"cpu sanitizer: cycle %d: closed store gate predicted a refusal, but the store's probe was a %s (a cache answer changed while its Version stood still)",
			now, res))
	}
}
