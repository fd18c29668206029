package trace

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.sha256 from the current figure CSVs")

const fingerprintFile = "figures.sha256"

// TestFigureCSVByteIdentity pins every figure of the evaluation — the eight
// paper figures and the four generated at-scale ones, at seed 1 — to the
// SHA-256 of its CSV on both backends, as committed in
// testdata/figures.sha256. Any change that moves a single byte of figure
// output fails here, however uniformly it shifts the runs. A deliberate
// output change regenerates the file and names the cause in its commit:
//
//	go test ./internal/trace -run FigureCSVByteIdentity -update
func TestFigureCSVByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure runs; skipped in -short")
	}
	path := filepath.Join("testdata", fingerprintFile)
	want := map[string]string{}
	if !*update {
		var err error
		if want, err = readFingerprints(path); err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
	}
	var mu sync.Mutex
	got := map[string]string{}
	if *update {
		t.Cleanup(func() {
			if t.Failed() {
				return
			}
			if err := writeFingerprints(path, got); err != nil {
				t.Error(err)
			}
		})
	}
	for _, sc := range experiments.AllFigures(1) {
		kind := SeriesAllowed
		if strings.Contains(sc.Name, "cumulative") {
			kind = SeriesCumulative
		}
		sc, kind := sc, kind
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			for _, be := range []experiments.Backend{experiments.BackendPacket, experiments.BackendFlow} {
				sc := sc
				sc.Backend = be
				sum := sha256.Sum256(renderFigure(t, sc, kind))
				key := be.String() + "/" + sc.Name + ".csv"
				digest := hex.EncodeToString(sum[:])
				mu.Lock()
				got[key] = digest
				mu.Unlock()
				if !*update && want[key] != digest {
					t.Errorf("%s: sha256 %s, want %s", key, digest, want[key])
				}
			}
		})
	}
}

// readFingerprints parses a sha256sum-style file: "<hex digest>  <key>" per
// line.
func readFingerprints(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, key, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		out[key] = digest
	}
	return out, sc.Err()
}

// writeFingerprints writes the digests sorted by key, in the format
// readFingerprints reads (and sha256sum -c checks against CSVs laid out as
// <backend>/<figure>.csv).
func writeFingerprints(path string, digests map[string]string) error {
	keys := make([]string, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&buf, "%s  %s\n", digests[k], k)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func renderFigure(t *testing.T, sc experiments.Scenario, kind SeriesKind) []byte {
	t.Helper()
	res, err := experiments.Run(sc)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res, kind); err != nil {
		t.Fatalf("%s: WriteCSV: %v", sc.Name, err)
	}
	return buf.Bytes()
}
