package atomicfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileReplaces: a successful write replaces the previous content
// with the requested permission and leaves nothing else in the directory.
func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cal.json")
	for _, content := range []string{"first", "second, longer content"} {
		if err := WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("read back %q, %v; want %q", got, err, content)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", fi.Mode().Perm())
	}
	onlyFile(t, dir, "cal.json")
}

// TestFailedWriteKeepsPrevious: a write that fails part-way — after some
// bytes are out — leaves the previous file byte-identical and removes its
// temporary file.
func TestFailedWriteKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cal.json")
	prev := []byte(`{"version":1}`)
	if err := WriteFile(path, prev, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := write(path, 0o644, func(w io.Writer) error {
		if _, err := w.Write([]byte(`{"vers`)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, prev) {
		t.Fatalf("previous file now %q, %v; want %q", got, err, prev)
	}
	onlyFile(t, dir, "cal.json")
}

// TestWriteFileErrors: a missing directory and an unrenameable target
// both fail without leaving a temporary file behind.
func TestWriteFileErrors(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(filepath.Join(dir, "missing", "x.json"), nil, 0o644); err == nil {
		t.Error("write into a missing directory succeeded")
	}
	target := filepath.Join(dir, "occupied")
	if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(target, []byte("x"), 0o644); err == nil {
		t.Error("rename over a non-empty directory succeeded")
	}
	onlyFile(t, dir, "occupied")
}

func onlyFile(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only %s", names, name)
	}
}
