package mat

import "testing"

// Hooks for this package's external tests (package mat_test), which
// train whole models and so cannot live inside package mat.

// HasAsm reports whether the asm family can run on this build and CPU.
var HasAsm = hasAsm

// SetFamily is setFamily for external tests: it forces the kernel
// family until the test ends.
func SetFamily(t *testing.T, asm bool) { setFamily(t, asm) }
