package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/hyperopt"
	"repro/internal/mat"
)

// loadDataset resolves the -data argument: "sim:c3o" / "sim:bell" for
// the seeded simulators, anything else as a CSV path.
func loadDataset(spec string, seed int64) (*dataset.Dataset, error) {
	switch spec {
	case "sim:c3o":
		return dataset.GenerateC3O(dataset.SimConfig{Seed: seed}), nil
	case "sim:bell":
		return dataset.GenerateBell(dataset.SimConfig{Seed: seed}), nil
	case "":
		return nil, fmt.Errorf("missing -data (CSV path, sim:c3o or sim:bell)")
	}
	f, err := os.Open(spec)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}

func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	data := fs.String("data", "", "training traces: CSV path, sim:c3o or sim:bell")
	job := fs.String("job", "", "restrict training to one job's executions")
	out := fs.String("out", "", "output model path (required)")
	budgetName := fs.String("budget", string(experiments.BudgetCI), "training budget: ci, or paper for Table I's epochs after its hyperparameter search")
	seed := fs.Int64("seed", 1, "seed for simulation and weight init")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("train: missing -out")
	}
	budget, err := experiments.ParseBudget(*budgetName)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}

	ds, err := loadDataset(*data, *seed)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	execs := ds.Executions
	if *job != "" {
		execs = ds.ForJob(*job)
		if len(execs) == 0 {
			return fmt.Errorf("train: no executions for job %q (have: %s)",
				*job, strings.Join(ds.Jobs(), ", "))
		}
	}
	samples := core.SamplesFromExecutions(execs)

	cfg := budget.Model()
	cfg.Seed = *seed

	// Table I's hyperparameter search: candidate models pre-train in
	// parallel across cores. Trials and the helpers of their sharded
	// training steps draw on one budget of cores (internal/parallel), so
	// trial fan-out cannot oversubscribe the machine.
	if budget.Search() {
		opts := hyperopt.DefaultOptions()
		opts.Seed = *seed
		fmt.Printf("hyperopt: %d trials on %d executions...\n", opts.Trials, len(samples))
		res, err := hyperopt.Search(cfg, samples, hyperopt.DefaultSpace(), opts)
		if err != nil {
			return fmt.Errorf("train: hyperopt: %w", err)
		}
		cfg = res.Apply(cfg)
		fmt.Printf("hyperopt: best dropout=%.2f lr=%.0e wd=%.0e (val MAE %.2fs)\n",
			res.Best.Dropout, res.Best.LearningRate, res.Best.WeightDecay, res.Best.ValMAE)
	}

	m, err := core.New(cfg)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	fmt.Printf("pre-training on %d executions (%d epochs)...\n", len(samples), cfg.PretrainEpochs)
	rep, err := m.Pretrain(samples)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	if err := m.SaveFile(*out); err != nil {
		return fmt.Errorf("train: %w", err)
	}
	epochsPerSec := float64(rep.Epochs) / rep.Duration.Seconds()
	fmt.Printf("trained %s: best MAE %.2fs at epoch %d, final runtime loss %.4f, took %s (%.0f epochs/s); %d property rows, %d distinct; %d shards a step, a helper ran the second in %d of %d steps\n",
		*out, rep.BestMAE, rep.BestEpoch, rep.FinalRuntimeLoss, rep.Duration.Round(0), epochsPerSec,
		rep.PropertyRows, rep.DistinctProperties, rep.Shards, rep.HelperSteps, rep.SplitSteps)
	slog.Info("pre-trained", "model", *out, "samples", len(samples), "epochs", rep.Epochs,
		"best_mae_s", rep.BestMAE, "best_epoch", rep.BestEpoch, "epochs_per_s", epochsPerSec,
		"property_rows", rep.PropertyRows, "distinct_properties", rep.DistinctProperties,
		"step_shards", rep.Shards, "split_steps", rep.SplitSteps, "helper_steps", rep.HelperSteps,
		"scratch_bytes", rep.ScratchBytes, "mat_kernel", mat.KernelFamily())
	return nil
}
