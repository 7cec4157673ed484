package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ktpm"
)

// snapshotBackend reopens the standard test database from a snapshot
// (the default written format) in the given mode.
func snapshotBackend(t testing.TB, mode ktpm.SnapshotMode) *ktpm.Database {
	t.Helper()
	db := testDatabase(t)
	path := filepath.Join(t.TempDir(), "db.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ktpm.SaveSnapshot(f, db); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sdb, err := ktpm.OpenSnapshot(path, ktpm.SnapshotOptions{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	return sdb
}

// TestStatsReportsSnapshot pins the /stats and /metrics surface of a
// snapshot-backed daemon: the startup block carries the mode and open
// time, the snapshot block tracks faulted tables, and queries over the
// lazy backing still answer correctly.
func TestStatsReportsSnapshot(t *testing.T) {
	db := snapshotBackend(t, ktpm.SnapshotLazy)
	s := New(db, Config{Startup: StartupInfo{Source: "snapshot", SnapshotMode: "lazy", OpenMS: 1.5}})
	defer s.Close()

	_, body := get(t, s, "/stats")
	startup, ok := body["startup"].(map[string]any)
	if !ok {
		t.Fatalf("no startup block in /stats: %v", body)
	}
	if startup["source"] != "snapshot" || startup["snapshot_mode"] != "lazy" {
		t.Fatalf("startup block = %v", startup)
	}
	snap, ok := body["snapshot"].(map[string]any)
	if !ok {
		t.Fatalf("no snapshot block in /stats: %v", body)
	}
	if snap["mode"] != "lazy" {
		t.Fatalf("snapshot mode = %v", snap["mode"])
	}
	if got := snap["tables_loaded"].(float64); got != 0 {
		t.Fatalf("tables_loaded = %v before any query", got)
	}
	if snap["tables_total"].(float64) == 0 {
		t.Fatal("tables_total = 0")
	}

	rec, qr := getQuery(t, s, "/query?q=C(E,S)&k=5")
	if rec.Code != http.StatusOK || len(qr.Matches) == 0 {
		t.Fatalf("query over lazy snapshot: code %d, %d matches", rec.Code, len(qr.Matches))
	}
	_, body = get(t, s, "/stats")
	snap = body["snapshot"].(map[string]any)
	if got := snap["tables_loaded"].(float64); got == 0 {
		t.Fatal("tables_loaded still 0 after a query")
	}
	io := body["io"].(map[string]any)
	if io["TablesLoaded"].(float64) == 0 {
		t.Fatal("io.TablesLoaded = 0 after a query")
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, req)
	metrics := mrec.Body.String()
	for _, want := range []string{
		`ktpmd_snapshot_info{mode="lazy"} 1`,
		"ktpmd_snapshot_tables_loaded",
		"ktpmd_snapshot_bytes_mapped",
		"ktpmd_io_tables_loaded_total",
		"ktpmd_startup_open_ms 1.5",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestStatsOmitsSnapshotForBuiltDatabase pins that an in-memory database
// reports no snapshot block.
func TestStatsOmitsSnapshotForBuiltDatabase(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	_, body := get(t, s, "/stats")
	if _, ok := body["snapshot"]; ok {
		t.Fatal("built database reports a snapshot block")
	}
}
