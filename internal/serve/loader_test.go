package serve

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestModelFileName(t *testing.T) {
	if got := ModelFileName(ModelKey{Job: "sort", Env: "c3o"}); got != "sort_c3o.model" {
		t.Fatalf("ModelFileName = %q, want sort_c3o.model", got)
	}
	if got := ModelFileName(ModelKey{Job: "sort"}); got != "sort.model" {
		t.Fatalf("ModelFileName without env = %q, want sort.model", got)
	}
}

func TestDirLoaderMissingDir(t *testing.T) {
	loader := DirLoader(filepath.Join(t.TempDir(), "does-not-exist"))
	_, err := loader(ModelKey{Job: "sort", Env: "c3o"})
	if err == nil {
		t.Fatal("loader succeeded against a missing directory")
	}
	if !strings.Contains(err.Error(), "reading model file") {
		t.Fatalf("error %q does not identify the file read failure", err)
	}
}

func TestDirLoaderMissingFile(t *testing.T) {
	loader := DirLoader(t.TempDir()) // exists, but holds no models
	if _, err := loader(ModelKey{Job: "sort", Env: "c3o"}); err == nil {
		t.Fatal("loader succeeded for a model file that does not exist")
	}
}

func TestDirLoaderCorruptModelFile(t *testing.T) {
	dir := t.TempDir()
	key := ModelKey{Job: "sort", Env: "c3o"}
	path := filepath.Join(dir, ModelFileName(key))
	if err := os.WriteFile(path, []byte("this is not a model file"), 0o644); err != nil {
		t.Fatalf("writing corrupt file: %v", err)
	}
	loader := DirLoader(dir)
	_, err := loader(key)
	if err == nil {
		t.Fatal("loader decoded a corrupt model file")
	}
	if !strings.Contains(err.Error(), "not a format v2 model") {
		t.Fatalf("error %q does not identify the decode failure", err)
	}
}

func TestDirLoaderTruncatedModelFile(t *testing.T) {
	dir := t.TempDir()
	key := ModelKey{Job: "sort", Env: "c3o"}
	// A valid prefix of a real model: decoding must fail cleanly, not
	// produce a half-restored model.
	cl := &countingLoader{t: t}
	m, err := cl.load(key)
	if err != nil {
		t.Fatalf("building reference model: %v", err)
	}
	full := filepath.Join(dir, ModelFileName(key))
	if err := m.SaveFile(full); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	b, err := os.ReadFile(full)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if err := os.WriteFile(full, b[:len(b)/3], 0o644); err != nil {
		t.Fatalf("truncating: %v", err)
	}
	if _, err := DirLoader(dir)(key); err == nil {
		t.Fatal("loader decoded a truncated model file")
	}
}

// TestServiceSurfacesLoaderErrors pins the loader error path through the
// full service: a missing model answers the request with an error (and
// counts a load failure) instead of wedging the registry entry.
func TestServiceSurfacesLoaderErrors(t *testing.T) {
	svc := NewService(DirLoader(t.TempDir()), Options{})
	r := svc.Predict(context.Background(), ModelKey{Job: "sort", Env: "c3o"}, testQuery(4, 10000))
	if r.Err == nil {
		t.Fatal("prediction against an empty model dir succeeded")
	}
	if st := svc.Stats(); st.ModelLoadErrors != 1 {
		t.Fatalf("ModelLoadErrors = %d, want 1", st.ModelLoadErrors)
	}
}
