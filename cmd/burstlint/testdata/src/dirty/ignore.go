package dirty

// reset's suppression names an analyzer burstlint does not run, as a
// misspelling or a deleted analyzer's leftover would: it silences nothing,
// so it is reported itself.
func reset(s *state) {
	//lint:ignore errflw nothing here can fail
	s.n = 0
}
