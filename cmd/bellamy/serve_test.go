package main

import (
	"strings"
	"testing"
)

// TestServeRejectsObserveBufferBelowOne: compaction of -data-dir keeps
// -observe-buffer observations a model, so the flag must name a ring of
// at least one.
func TestServeRejectsObserveBufferBelowOne(t *testing.T) {
	for _, v := range []string{"0", "-3"} {
		err := runServe([]string{"-models", t.TempDir(), "-observe-buffer", v})
		if err == nil || !strings.Contains(err.Error(), "-observe-buffer") {
			t.Fatalf("-observe-buffer %s: runServe = %v, want the flag refused", v, err)
		}
	}
}
