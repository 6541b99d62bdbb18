package experiments

import (
	"strings"
	"testing"
)

// TestFormatFitTimesResolvesSubMillisecond checks that fits which differ
// below 0.1 ms, as the baselines' and short fine-tunes' do, print as
// different numbers of milliseconds to three significant digits.
func TestFormatFitTimesResolvesSubMillisecond(t *testing.T) {
	tab := Table{
		{Method: MethodNNLS, FitSeconds: 12e-6},
		{Method: MethodNNLS, FitSeconds: 14e-6},
		{Method: MethodBell, FitSeconds: 47e-6},
		{Method: MethodBellamyFull, FitSeconds: 0.0321},
		{Method: MethodBellamyLocal, FitSeconds: 2.5},
	}
	got := FormatFitTimes(tab)
	for _, want := range []string{
		"[ms]",
		"nnls     0.0130 (n=2)",
		"bell     0.0470 (n=1)",
		"bellamy-full       32.1 (n=1)",
		"bellamy-local       2500 (n=1)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("fit-time table lacks %q:\n%s", want, got)
		}
	}
}
