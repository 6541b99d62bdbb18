package main

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/experiments"
)

func runExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	kind := fs.String("kind", "crosscontext", "experiment: crosscontext (§IV-C1), crossenv (§IV-C2) or allocation")
	seed := fs.Int64("seed", 1, "seed for simulation, splits and model init")
	jobs := fs.String("jobs", "", "comma-separated job filter (default: all)")
	maxSplits := fs.Int("max-splits", 0, "splits per training size (0 = laptop-scale default)")
	contexts := fs.Int("contexts", 0, "target contexts per job, crosscontext and allocation (0 = default: 7 crosscontext, 3 allocation)")
	pretrainEpochs := fs.Int("pretrain-epochs", 0, "pre-training epochs (0 = laptop-scale default)")
	finetuneEpochs := fs.Int("finetune-epochs", 0, "fine-tuning epochs (0 = laptop-scale default)")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var jobList []string
	if *jobs != "" {
		for _, j := range strings.Split(*jobs, ",") {
			jobList = append(jobList, strings.TrimSpace(j))
		}
	}

	var cfg experiments.Config
	switch *kind {
	case "crosscontext":
		cfg = experiments.DefaultCrossContextConfig()
	case "crossenv":
		cfg = experiments.DefaultCrossEnvConfig()
	case "allocation":
		cfg = experiments.DefaultAllocationConfig()
	default:
		return fmt.Errorf("experiment: unknown -kind %q (want crosscontext, crossenv or allocation)", *kind)
	}
	cfg.Seed = *seed
	cfg.Jobs = jobList
	if *maxSplits > 0 {
		cfg.MaxSplits = *maxSplits
	}
	if *contexts > 0 {
		cfg.ContextsPerJob = *contexts
	}
	if *pretrainEpochs > 0 {
		cfg.Model.PretrainEpochs = *pretrainEpochs
	}
	if *finetuneEpochs > 0 {
		cfg.Model.FinetuneEpochs = *finetuneEpochs
	}
	run := func(ds *dataset.Dataset, plan experiments.Plan, err error) (experiments.Table, error) {
		if err == nil {
			var tab experiments.Table
			if tab, err = experiments.Run(ds, plan, *workers); err == nil {
				return tab, nil
			}
		}
		return nil, fmt.Errorf("experiment: %w", err)
	}

	c3o := dataset.GenerateC3O(dataset.SimConfig{Seed: *seed})
	switch *kind {
	case "crosscontext":
		fmt.Printf("cross-context experiment on %d executions...\n", c3o.Len())
		plan, err := experiments.CrossContextPlan(c3o, cfg)
		tab, err := run(c3o, plan, err)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatMRETable(tab, false))
		fmt.Println(experiments.FormatMRETable(tab, true))
		fmt.Println(experiments.FormatMAETable(tab, "Cross-context (Fig. 6)"))
		fmt.Println(experiments.FormatEpochECDF(tab))
		fmt.Println(experiments.FormatFitTimes(tab))
	case "allocation":
		fmt.Printf("allocation-quality experiment on %d executions...\n", c3o.Len())
		plan, err := experiments.AllocationPlan(c3o, cfg)
		tab, err := run(c3o, plan, err)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAllocationTable(tab))
	case "crossenv":
		bell := dataset.GenerateBell(dataset.SimConfig{Seed: *seed + 1})
		fmt.Printf("cross-environment experiment: %d C3O / %d Bell executions...\n", c3o.Len(), bell.Len())
		plan, err := experiments.CrossEnvPlan(c3o, bell, cfg)
		tab, err := run(bell, plan, err)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatMAETable(tab, "Cross-environment (Fig. 8)"))
		fmt.Println(experiments.FormatFitTimes(tab))
	}
	return nil
}
