// Package atomicfile writes whole files through a temp file and a
// rename, so a reader — or a crash mid-write — sees either the old
// content or the new, never a torn file. Every on-disk artefact that
// other processes read while it may be rewritten (profile and cell
// cache entries, snapshots, served weights, static lease files) is
// written this way.
package atomicfile

import (
	"os"
	"path/filepath"
)

// WriteFile writes data to path like os.WriteFile, but through a temp
// file in the same directory that is renamed over path once complete.
// The file ends up with mode perm. On failure the temp file is
// removed and path is left untouched.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*.tmp")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Chmod(perm)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
