package vm

// bug reports a violated internal invariant. It is the one place this
// package is allowed to panic (the lint/nopanic rule enforces it): every
// call marks a state the caller cannot have caused and cannot recover
// from, so unwinding to the test or tool boundary is the only honest
// outcome.
func bug(msg string) {
	panic("vm: " + msg)
}
