package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentVerb runs bellamy experiment at the default budget on
// one job of two kinds, and checks that both verbs that take -budget
// reject an unknown one with an error naming the valid values.
func TestExperimentVerb(t *testing.T) {
	if testing.Short() {
		t.Skip("pre-trains and fine-tunes models; skipped in -short")
	}
	for _, kind := range []string{"crossenv", "allocation"} {
		if err := runExperiment([]string{"-kind", kind, "-jobs", "grep"}); err != nil {
			t.Errorf("experiment -kind %s -jobs grep: %v", kind, err)
		}
	}
	for verb, run := range map[string]func() error{
		"experiment": func() error { return runExperiment([]string{"-budget", "bogus"}) },
		"train": func() error {
			return runTrain([]string{"-data", "sim:c3o", "-out", filepath.Join(t.TempDir(), "m.model"), "-budget", "bogus"})
		},
	} {
		err := run()
		if err == nil || !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), "ci or paper") {
			t.Errorf("%s -budget bogus: error %v, want one naming ci and paper", verb, err)
		}
	}
}
