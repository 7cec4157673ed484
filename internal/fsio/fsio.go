// Package fsio provides the crash-atomic file primitives the write
// path is built on. Every snapshot generation, CURRENT pointer, and
// saved snapshot goes through WriteFileAtomic: a torn write can only
// ever produce an orphaned *.tmp file, never a half-written file under
// the final name.
package fsio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes a file crash-atomically: the content is
// streamed into a unique *.tmp sibling, fsynced, closed, renamed over
// path, and the parent directory is fsynced so the rename itself is
// durable. On an error up to and including the rename, the temp file is
// removed and path is untouched (an existing file at path survives
// intact). The one exception is the final directory fsync: by then the
// rename has happened, so a failure there returns an error with the new
// content already visible at path — only its durability across a crash
// is unknown.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := write(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making previously-renamed entries in it
// durable. Filesystems that do not support fsync on directories report
// EINVAL; that is surfaced as an error because the write path's
// correctness depends on it.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("fsync %s: %w", dir, err)
	}
	return nil
}

// RemoveGlob removes every file in dir whose base name matches the
// glob pattern, returning the names removed. Used by recovery to clean
// orphaned *.tmp files and superseded generations.
func RemoveGlob(dir, pattern string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			return removed, err
		}
		removed = append(removed, filepath.Base(m))
	}
	return removed, nil
}
