// Package dataset provides the execution-trace substrate for the Bellamy
// evaluation: record/context types, seeded simulators that reproduce the
// statistical structure of the public C3O and Bell datasets, CSV
// import/export, and the context filters the paper's pre-training
// variants rely on.
//
// Substitution note (DESIGN.md §2): the original datasets are real cloud
// and cluster traces fetched from GitHub. This module generates synthetic
// equivalents with the same schema, context counts, scale-out grids,
// repeat counts, and — crucially — the same qualitative structure:
// Ernest-shaped scale-out curves whose coefficients depend on the
// descriptive properties, with trivial (Sort, Grep) and non-trivial
// (SGD, K-Means) scale-out behaviour and run-to-run noise.
package dataset

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/encoding"
)

// Environment labels the origin of a trace.
type Environment string

const (
	// EnvC3O marks the public-cloud environment of the C3O datasets.
	EnvC3O Environment = "c3o"
	// EnvBell marks the private-cluster environment of the Bell datasets.
	EnvBell Environment = "bell"
)

// Context is a unique job execution context: the combination of
// descriptive properties under which scale-out experiments were run
// (paper §IV-B: node type, job parameters, dataset size and
// characteristics define a C3O context).
type Context struct {
	ID            string
	Env           Environment
	Job           string
	NodeType      string
	JobParams     string
	DatasetSizeMB int
	DatasetChars  string
	MemoryMB      int
	Cores         int
}

// EssentialProps returns the always-available descriptive properties in
// the order the paper selects them: dataset size, dataset
// characteristics, job parameters, node type.
func (c *Context) EssentialProps() []encoding.Property {
	return []encoding.Property{
		{Name: "dataset_size_mb", Value: strconv.Itoa(c.DatasetSizeMB)},
		{Name: "dataset_characteristics", Value: c.DatasetChars},
		{Name: "job_parameters", Value: c.JobParams},
		{Name: "node_type", Value: c.NodeType},
	}
}

// OptionalProps returns the sometimes-available properties: memory in MB,
// number of CPU cores, and the job name.
func (c *Context) OptionalProps() []encoding.Property {
	return []encoding.Property{
		{Name: "memory_mb", Value: strconv.Itoa(c.MemoryMB), Optional: true},
		{Name: "cpu_cores", Value: strconv.Itoa(c.Cores), Optional: true},
		{Name: "job_name", Value: c.Job, Optional: true},
	}
}

// Execution is one recorded job run: a context, a horizontal scale-out,
// and the observed runtime.
type Execution struct {
	Context    *Context
	ScaleOut   int
	RuntimeSec float64
}

// Dataset is a collection of executions with index helpers.
type Dataset struct {
	Executions []Execution
}

// Len returns the number of execution records.
func (d *Dataset) Len() int { return len(d.Executions) }

// Jobs returns the distinct job names in deterministic order.
func (d *Dataset) Jobs() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range d.Executions {
		if !seen[e.Context.Job] {
			seen[e.Context.Job] = true
			out = append(out, e.Context.Job)
		}
	}
	sort.Strings(out)
	return out
}

// Contexts returns the distinct contexts of a job in deterministic order.
func (d *Dataset) Contexts(job string) []*Context {
	seen := map[string]*Context{}
	var ids []string
	for i := range d.Executions {
		c := d.Executions[i].Context
		if c.Job != job {
			continue
		}
		if _, ok := seen[c.ID]; !ok {
			seen[c.ID] = c
			ids = append(ids, c.ID)
		}
	}
	sort.Strings(ids)
	out := make([]*Context, len(ids))
	for i, id := range ids {
		out[i] = seen[id]
	}
	return out
}

// ForJob returns all executions of a job.
func (d *Dataset) ForJob(job string) []Execution {
	var out []Execution
	for _, e := range d.Executions {
		if e.Context.Job == job {
			out = append(out, e)
		}
	}
	return out
}

// ForContext returns all executions in the context with the given ID.
func (d *Dataset) ForContext(ctxID string) []Execution {
	var out []Execution
	for _, e := range d.Executions {
		if e.Context.ID == ctxID {
			out = append(out, e)
		}
	}
	return out
}

// ScaleOuts returns the sorted distinct scale-outs of a set of executions.
func ScaleOuts(execs []Execution) []int {
	seen := map[int]bool{}
	var out []int
	for _, e := range execs {
		if !seen[e.ScaleOut] {
			seen[e.ScaleOut] = true
			out = append(out, e.ScaleOut)
		}
	}
	sort.Ints(out)
	return out
}

// GroupByScaleOut partitions executions by their scale-out.
func GroupByScaleOut(execs []Execution) map[int][]Execution {
	out := map[int][]Execution{}
	for _, e := range execs {
		out[e.ScaleOut] = append(out[e.ScaleOut], e)
	}
	return out
}

// MeanRuntimeByScaleOut averages repeated runs per scale-out.
func MeanRuntimeByScaleOut(execs []Execution) map[int]float64 {
	sums := map[int]float64{}
	counts := map[int]int{}
	for _, e := range execs {
		sums[e.ScaleOut] += e.RuntimeSec
		counts[e.ScaleOut]++
	}
	out := make(map[int]float64, len(sums))
	for k, s := range sums {
		out[k] = s / float64(counts[k])
	}
	return out
}

// CheckRuntime is the one rule for an observed runtime, wherever it
// enters: a trace row, a training sample or a live observation. It must
// be positive and finite. NaN and +Inf pass a bare "runtime <= 0" test,
// and one of them in a training set turns every loss it reaches to NaN.
func CheckRuntime(sec float64) error {
	if !(sec > 0) || math.IsInf(sec, 1) {
		return fmt.Errorf("runtime %v must be positive and finite", sec)
	}
	return nil
}

// Validate checks structural invariants: non-nil contexts, positive
// scale-outs and runtimes that pass CheckRuntime. It returns the first
// violation found.
func (d *Dataset) Validate() error {
	for i, e := range d.Executions {
		if e.Context == nil {
			return fmt.Errorf("dataset: execution %d has nil context", i)
		}
		if e.ScaleOut <= 0 {
			return fmt.Errorf("dataset: execution %d has scale-out %d", i, e.ScaleOut)
		}
		if err := CheckRuntime(e.RuntimeSec); err != nil {
			return fmt.Errorf("dataset: execution %d: %w", i, err)
		}
	}
	return nil
}
