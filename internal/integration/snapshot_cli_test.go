package integration

import (
	"encoding/binary"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ktpm/internal/closure"
	"ktpm/internal/gen"
)

// TestSnapshotCLIRejectsUnservableFiles drives the real binaries over the
// inputs this build refuses: ktpm -verify-snapshot must exit nonzero and
// name the problem for a snapshot whose checksum trailer was stripped
// (after a structurally valid payload edit that would otherwise be served
// as a wrong answer) and for a file in a format earlier builds wrote, and
// ktpmd must reject the removed -db flag as a usage error (exit 2).
func TestSnapshotCLIRejectsUnservableFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries; skipped in -short")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"ktpm", "ktpmd"} {
		bins[name] = filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bins[name], "ktpm/cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", name, err, out)
		}
	}

	f, err := os.Create(filepath.Join(dir, "g.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := closure.WriteSnapshot(f, closure.Compute(gen.ErdosRenyi(30, 90, 4, 5), closure.Options{})); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(bins["ktpm"], "-verify-snapshot", f.Name()).CombinedOutput(); err != nil {
		t.Fatalf("healthy snapshot failed verification: %v\n%s", err, out)
	}

	// Strip the trailer (12 fixed bytes, one CRC per table, 32-byte
	// footer), then add 1 to the first distance of the first table.
	le := binary.LittleEndian
	numTables := int(le.Uint64(good[18:26]))
	stripped := append([]byte(nil), good[:len(good)-(12+4*numTables+32)]...)
	row := stripped[le.Uint64(stripped[50:58]):]
	off, count := int(le.Uint64(row[8:16])), int(le.Uint64(row[16:24]))
	dist := off + (count*4+15)/16*16
	le.PutUint32(stripped[dist:], le.Uint32(stripped[dist:])+1)

	legacy := append([]byte(nil), good...)
	copy(legacy, "KTPMSNAP1\n")

	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"trailer-stripped", stripped, "torn or corrupt file"},
		{"legacy", legacy, "KTPMSNAP1 snapshot, a format this build no longer reads; rewrite it as KTPMSNAP2"},
	} {
		path := filepath.Join(dir, tc.name+".snap")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bins["ktpm"], "-verify-snapshot", path).CombinedOutput()
		if err == nil {
			t.Fatalf("%s: -verify-snapshot exited 0:\n%s", tc.name, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Fatalf("%s: -verify-snapshot output does not say %q:\n%s", tc.name, tc.want, out)
		}
	}

	out, err := exec.Command(bins["ktpmd"], "-db", filepath.Join(dir, "g.ktpmdb")).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("ktpmd -db: want exit 2, got %v:\n%s", err, out)
	}
}
