//go:build !linux

package parallel

// osYield does nothing where the kernel offers no cheap yield.
func osYield() {}
