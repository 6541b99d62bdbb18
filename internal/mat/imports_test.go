package mat

import (
	"go/build"
	"testing"
)

// TestSingleThreadedImports pins the package's design: its kernels run
// on the calling goroutine, so no non-test file imports sync,
// sync/atomic or runtime. Every build the package has is checked: the
// amd64 asm family, -tags noasm, and arm64.
func TestSingleThreadedImports(t *testing.T) {
	banned := map[string]bool{"sync": true, "sync/atomic": true, "runtime": true}
	for _, c := range []struct {
		name, arch string
		tags       []string
	}{
		{"amd64", "amd64", nil},
		{"amd64-noasm", "amd64", []string{"noasm"}},
		{"arm64", "arm64", nil},
	} {
		ctxt := build.Default
		ctxt.GOOS, ctxt.GOARCH, ctxt.BuildTags = "linux", c.arch, c.tags
		pkg, err := ctxt.ImportDir(".", 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(pkg.GoFiles) == 0 {
			t.Fatalf("%s: no Go files", c.name)
		}
		for _, imp := range pkg.Imports {
			if banned[imp] {
				t.Errorf("%s: package mat imports %q; its kernels must run on the calling goroutine", c.name, imp)
			}
		}
	}
}
