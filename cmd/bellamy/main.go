// Command bellamy is the end-to-end entrypoint of the Bellamy runtime
// prediction system: it trains models on execution traces, answers
// predictions from the command line, serves them over HTTP, generates
// simulated datasets, and runs the paper's experiments.
package main

import (
	"fmt"
	"os"
)

const usage = `bellamy — runtime prediction for distributed dataflow jobs

Usage:
  bellamy train      -data <csv|sim:c3o|sim:bell> -out <model> [-budget ci|paper] [flags]
  bellamy predict    -model <model> -scale-outs <2,4,...> [flags]
  bellamy allocate   -model <model> -deadline <sec> [-min-scale-out 1 -max-scale-out 16] [flags]
  bellamy serve      -models <dir> [-addr :8080] [flags]
  bellamy experiment -kind <crosscontext|crossenv|allocation> [-budget ci|paper] [flags]
  bellamy dataset    -env <c3o|bell> [-out <csv>] [flags]

Run "bellamy <subcommand> -h" for the flags of each subcommand.`

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "train":
		err = runTrain(os.Args[2:])
	case "predict":
		err = runPredict(os.Args[2:])
	case "allocate":
		err = runAllocate(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "experiment":
		err = runExperiment(os.Args[2:])
	case "dataset":
		err = runDataset(os.Args[2:])
	case "-h", "--help", "help":
		fmt.Println(usage)
	default:
		fmt.Fprintf(os.Stderr, "bellamy: unknown subcommand %q\n\n%s\n", cmd, usage)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bellamy:", err)
		os.Exit(1)
	}
}
