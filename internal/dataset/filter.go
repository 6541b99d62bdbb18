package dataset

import "math"

// FilterExcludeContext returns executions of target.Job excluding the
// target context itself — what "all historical executions of the same
// job in different contexts" means when the target context is part of
// the corpus.
func FilterExcludeContext(d *Dataset, target *Context) []Execution {
	var out []Execution
	for _, e := range d.Executions {
		if e.Context.Job == target.Job && e.Context.ID != target.ID {
			out = append(out, e)
		}
	}
	return out
}

// FilterDissimilar implements the paper's "filtered" pre-training
// variant: only executions of the same job whose contexts are as
// different as possible from the target — node type, dataset
// characteristics and job parameters all differ, and the dataset size
// deviates by at least 20%.
func FilterDissimilar(d *Dataset, target *Context) []Execution {
	var out []Execution
	for _, e := range d.Executions {
		c := e.Context
		if c.Job != target.Job || c.ID == target.ID {
			continue
		}
		if c.NodeType == target.NodeType {
			continue
		}
		if c.DatasetChars == target.DatasetChars {
			continue
		}
		if c.JobParams == target.JobParams {
			continue
		}
		if !sizeDiffers(c.DatasetSizeMB, target.DatasetSizeMB, 0.20) {
			continue
		}
		out = append(out, e)
	}
	return out
}

// sizeDiffers reports whether a deviates from b by at least frac (either
// significantly larger or smaller).
func sizeDiffers(a, b int, frac float64) bool {
	if b == 0 {
		return a != 0
	}
	return math.Abs(float64(a-b))/float64(b) >= frac
}
