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
	budgetName := fs.String("budget", string(experiments.BudgetCI), "training budget: ci, or paper for Table I's model and §IV-C's splits")
	seed := fs.Int64("seed", 1, "seed for simulation, splits and model init")
	jobs := fs.String("jobs", "", "comma-separated job filter (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exp, ok := experiments.Kinds[*kind]
	if !ok {
		return fmt.Errorf("experiment: unknown -kind %q (want crosscontext, crossenv or allocation)", *kind)
	}
	budget, err := experiments.ParseBudget(*budgetName)
	if err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	cfg := exp.Config(budget)
	cfg.Seed = *seed
	if *jobs != "" {
		for _, j := range strings.Split(*jobs, ",") {
			cfg.Jobs = append(cfg.Jobs, strings.TrimSpace(j))
		}
	}

	c3o := dataset.GenerateC3O(dataset.SimConfig{Seed: *seed})
	bell := dataset.GenerateBell(dataset.SimConfig{Seed: *seed + 1})
	fmt.Printf(exp.Intro+"\n", c3o.Len(), bell.Len())
	ds := c3o
	if exp.OnBell {
		ds = bell
	}
	plan, err := exp.Plan(c3o, bell, cfg)
	var tab experiments.Table
	if err == nil {
		tab, err = experiments.Run(ds, plan, 0)
	}
	if err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	for _, t := range exp.Tables(tab) {
		fmt.Println(t)
	}
	return nil
}
