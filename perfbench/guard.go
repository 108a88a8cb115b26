package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// guardDeterminism compares this run's simulated values with those recorded
// by earlier runs of the same binary, workload and seed, and records any new
// ones. A simulated value that differs is a failure: for a fixed seed the
// simulator must repeat exactly.
func guardDeterminism(op options, o *outcome) error {
	id, err := binaryID()
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d", op.workload, op.seed)
	if op.tiny {
		name += "-tiny"
	}
	path := filepath.Join(op.out, "records", id, name+".json")
	recorded := map[string]float64{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &recorded); err != nil {
			return fmt.Errorf("reading determinism record %s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("reading determinism record: %w", err)
	}
	keys := make([]string, 0, len(o.simPrint))
	for k := range o.simPrint {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	changed := false
	for _, k := range keys {
		v := o.simPrint[k]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.check(false, "simulated value %s is %v", k, v)
			continue
		}
		old, ok := recorded[k]
		if !ok {
			recorded[k] = v
			changed = true
			continue
		}
		o.check(old == v, "determinism: %s is %v, an earlier run of this seed gave %v", k, v, old)
	}
	if !changed {
		return nil
	}
	if data, err = json.MarshalIndent(recorded, "", " "); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// binaryID identifies the running binary by a hash of its contents, so
// records made by a build of other code are never compared.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", exe, err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
