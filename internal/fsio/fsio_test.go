package fsio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// dirNames lists dir's entries, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "CURRENT")
	for _, content := range []string{"gen-1", "gen-2, longer than the first"} {
		if err := WriteFileAtomic(path, writeString(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("content = %q, want %q", got, content)
		}
		if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"CURRENT"}) {
			t.Fatalf("directory holds %v, want only CURRENT (no *.tmp)", names)
		}
	}
}

func TestWriteFileAtomicFailedWriteKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "CURRENT")
	if err := WriteFileAtomic(path, writeString("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half of the new cont") // a torn write lands in the temp file only
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the write callback's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("content after failed write = %q, want %q", got, "old")
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"CURRENT"}) {
		t.Fatalf("directory holds %v after a failed write, want only CURRENT", names)
	}
}

func TestWriteFileAtomicMissingParent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no-such-dir", "CURRENT")
	if err := WriteFileAtomic(path, writeString("x")); err == nil {
		t.Fatal("write under a missing parent directory succeeded")
	}
}

func TestRemoveGlob(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"gen-1.snap", "gen-2.snap", "gen-2.snap.123.tmp", "CURRENT", "wal.tmp.keep"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := RemoveGlob(dir, "gen-*.snap")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(removed)
	if want := []string{"gen-1.snap", "gen-2.snap"}; !reflect.DeepEqual(removed, want) {
		t.Fatalf("removed %v, want %v", removed, want)
	}
	if want := []string{"CURRENT", "gen-2.snap.123.tmp", "wal.tmp.keep"}; !reflect.DeepEqual(dirNames(t, dir), want) {
		t.Fatalf("left %v, want %v", dirNames(t, dir), want)
	}
	if removed, err := RemoveGlob(dir, "nothing-*"); err != nil || len(removed) != 0 {
		t.Fatalf("no-match glob = %v, %v; want nothing removed", removed, err)
	}
}

func TestSyncDirMissing(t *testing.T) {
	if err := SyncDir(filepath.Join(t.TempDir(), "gone")); err == nil {
		t.Fatal("SyncDir on a missing directory succeeded")
	}
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir on a real directory: %v", err)
	}
}
