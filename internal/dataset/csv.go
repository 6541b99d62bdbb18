package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// csvHeader is the column layout of the interchange format. It carries
// every field needed to reconstruct contexts, so real C3O/Bell traces can
// be converted into it and dropped in.
var csvHeader = []string{
	"env", "job", "context_id", "node_type", "job_params",
	"dataset_size_mb", "dataset_chars", "memory_mb", "cores",
	"scale_out", "runtime_sec",
}

// WriteCSV serializes the dataset.
func WriteCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("dataset: writing header: %w", err)
	}
	for _, e := range d.Executions {
		c := e.Context
		rec := []string{
			string(c.Env), c.Job, c.ID, c.NodeType, c.JobParams,
			strconv.Itoa(c.DatasetSizeMB), c.DatasetChars,
			strconv.Itoa(c.MemoryMB), strconv.Itoa(c.Cores),
			strconv.Itoa(e.ScaleOut),
			strconv.FormatFloat(e.RuntimeSec, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: writing record: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset written by WriteCSV. Contexts with the same
// context_id are shared between execution records, so every row of one
// context_id must carry the same properties: a row that disagrees is an
// error, not a silent merge that would train its executions under
// another context's properties.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return nil, fmt.Errorf("dataset: header has %d columns, want %d", len(header), len(csvHeader))
	}
	for i, h := range csvHeader {
		if header[i] != h {
			return nil, fmt.Errorf("dataset: column %d is %q, want %q", i, header[i], h)
		}
	}
	ds := &Dataset{}
	contexts := map[string]*Context{}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err) // a csv.ParseError names its line
		}
		// The line the record starts on: a quoted value may span lines.
		line, _ := cr.FieldPos(0)
		for i, field := range rec {
			// encoding/csv reads "\r\n" inside a quoted field as "\n", so a
			// value holding a carriage return would not survive WriteCSV.
			if strings.IndexByte(field, '\r') >= 0 {
				return nil, fmt.Errorf("dataset: line %d %s: carriage return in value", line, csvHeader[i])
			}
		}
		sizeMB, err := strconv.Atoi(rec[5])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d dataset_size_mb: %w", line, err)
		}
		memMB, err := strconv.Atoi(rec[7])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d memory_mb: %w", line, err)
		}
		cores, err := strconv.Atoi(rec[8])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d cores: %w", line, err)
		}
		scaleOut, err := strconv.Atoi(rec[9])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d scale_out: %w", line, err)
		}
		runtime, err := strconv.ParseFloat(rec[10], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d runtime_sec: %w", line, err)
		}
		row := Context{
			ID:            rec[2],
			Env:           Environment(rec[0]),
			Job:           rec[1],
			NodeType:      rec[3],
			JobParams:     rec[4],
			DatasetSizeMB: sizeMB,
			DatasetChars:  rec[6],
			MemoryMB:      memMB,
			Cores:         cores,
		}
		ctx, ok := contexts[row.ID]
		if !ok {
			ctx = &row
			contexts[row.ID] = ctx
		} else if *ctx != row {
			return nil, fmt.Errorf("dataset: line %d: context %q differs from its earlier rows", line, row.ID)
		}
		ds.Executions = append(ds.Executions, Execution{
			Context:    ctx,
			ScaleOut:   scaleOut,
			RuntimeSec: runtime,
		})
	}
	return ds, ds.Validate()
}
