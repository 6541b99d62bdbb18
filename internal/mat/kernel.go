package mat

// useAsm selects the kernel family every float32 multiply, activation
// and optimizer sweep in this process runs: the hand-written AVX2/FMA3
// kernels of kernel_amd64.s ("asm") when the CPU and the build have
// them, the Go loops ("plain") otherwise. Fixed at startup from hasAsm;
// nothing configures it, and only the equivalence tests flip it. The
// float64 products (mul.go) do not read it: they have one implementation.
var useAsm = hasAsm

// KernelFamily names the multiply-kernel family in use, "asm" or
// "plain", for startup logging and benchmark reports.
func KernelFamily() string {
	if useAsm {
		return "asm"
	}
	return "plain"
}
