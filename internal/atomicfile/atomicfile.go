// Package atomicfile writes files crash-safely: the content goes to a
// uniquely named temporary file in the target's directory, is synced to
// stable storage, and only then renamed over the target. A reader — or a
// process restarted after a crash mid-write — therefore sees either the
// previous file or the complete new one, never a torn mix, and concurrent
// writers of the same path never share a temporary file.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with data, created with permission
// perm. On any error the previous file (if any) is left untouched and the
// temporary file is removed.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return write(path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// write is WriteFile with the content produced by fill.
func write(path string, perm os.FileMode, fill func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = fill(f); err != nil {
		return err
	}
	if err = f.Chmod(perm); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
