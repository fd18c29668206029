package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
)

// refFile holds one workload's reference output digests: the SHA-256 of
// each scenario's rendered CSVs, keyed by scenarioKey. Digests compare
// only on the platform they were recorded on, since floating-point results
// may differ across architectures.
type refFile struct {
	Platform string            `json:"platform"`
	Digests  map[string]string `json:"digests"`
}

// refsDir holds the reference digests, relative to the repository root
// the benchmark runs from.
const refsDir = "perfbench/refs"

func platform() string { return runtime.GOOS + "/" + runtime.GOARCH }

func refPath(dir, workload string) string {
	return filepath.Join(dir, workload+".json")
}

func readRefFile(path string) (refFile, error) {
	rf := refFile{Platform: platform(), Digests: map[string]string{}}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return rf, nil
	}
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// loadRefs returns the workload's recorded digests on this platform (nil
// when none are recorded).
func loadRefs(dir, workload string) (map[string]string, error) {
	rf, err := readRefFile(refPath(dir, workload))
	if err != nil || rf.Platform != platform() {
		return nil, err
	}
	return rf.Digests, nil
}

// saveRefs records digests for the workload, keeping those of other
// scenarios.
func saveRefs(dir, workload string, digests map[string]string) error {
	path := refPath(dir, workload)
	rf, err := readRefFile(path)
	if err != nil {
		return err
	}
	if rf.Platform != platform() {
		return fmt.Errorf("%s holds %s digests; refusing to mix in %s", path, rf.Platform, platform())
	}
	for k, v := range digests {
		rf.Digests[k] = v
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checkRuns counts the failed scenario runs over every pass: a run fails
// when it errors, reports an invariant violation, or renders CSVs whose
// digest differs from the reference. A scenario without a recorded
// reference takes its first successful run as the reference, so every pass
// must still agree with every other. Problems are described in notes.
func checkRuns(passes []passResult, refs map[string]string) (attempted, failed int, notes []string) {
	want := make(map[string]string, len(refs))
	for k, v := range refs {
		want[k] = v
	}
	for _, p := range passes {
		for _, r := range p.Scenarios {
			attempted++
			switch {
			case r.Err != "":
				failed++
				notes = append(notes, fmt.Sprintf("%s pass, %s: %s", p.Mode, r.Key, r.Err))
			case len(r.Violations) > 0:
				failed++
				notes = append(notes, fmt.Sprintf("%s pass, %s: %d invariant violation(s), first: %s", p.Mode, r.Key, len(r.Violations), r.Violations[0]))
			default:
				ref, ok := want[r.Key]
				if !ok {
					want[r.Key] = r.Digest
					continue
				}
				if ref != r.Digest {
					failed++
					notes = append(notes, fmt.Sprintf("%s pass, %s: output digest %.12s, want %.12s", p.Mode, r.Key, r.Digest, ref))
				}
			}
		}
	}
	return attempted, failed, notes
}
