package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileReplacesAtomically: the file ends up with exactly the
// new bytes and the requested mode, an existing file is replaced
// wholesale, and no temp file is left behind — on success or failure.
func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.json")
	if err := os.WriteFile(path, []byte("{old, longer content"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, perm := range []os.FileMode{0o644, 0o600} {
		if err := WriteFile(path, []byte("new"), perm); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != "new" {
			t.Fatalf("file holds %q, want %q", data, "new")
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode().Perm() != perm {
			t.Fatalf("mode %v, want %v", info.Mode().Perm(), perm)
		}
	}
	if err := WriteFile(filepath.Join(dir, "missing", "x"), []byte("x"), 0o644); err == nil {
		t.Fatal("writing into a missing directory must fail")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the file (no temp files left)", len(entries))
	}
}
