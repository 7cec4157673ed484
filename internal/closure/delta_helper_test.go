package closure

import (
	"io"

	"ktpm/internal/fsio"
)

// writeSnapshotFile writes src as a snapshot at path, crash-atomically
// like every production write path.
func writeSnapshotFile(path string, src TableSource) error {
	return fsio.WriteFileAtomic(path, func(w io.Writer) error {
		return WriteSnapshot(w, src)
	})
}
