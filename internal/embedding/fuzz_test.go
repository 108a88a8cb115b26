package embedding

import (
	"bytes"
	"testing"

	"pgasemb/internal/sim"
)

// FuzzLoadCollection asserts the checkpoint loader never panics and never
// silently accepts corrupted data that round-trips differently.
func FuzzLoadCollection(f *testing.F) {
	// Seed with a valid checkpoint and a few mutations.
	c := NewCollection([]int{0, 4}, 6, 3, sim.NewRNG(1))
	var buf bytes.Buffer
	if err := SaveCollection(&buf, c); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:8])
	f.Add([]byte{})
	mutated := append([]byte(nil), valid...)
	mutated[12] ^= 0xFF
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadCollection(bytes.NewReader(data))
		if err != nil {
			return // rejection is always fine
		}
		// Anything accepted must re-serialise cleanly.
		var out bytes.Buffer
		if err := SaveCollection(&out, got); err != nil {
			t.Fatalf("accepted checkpoint cannot re-save: %v", err)
		}
		re, err := LoadCollection(&out)
		if err != nil {
			t.Fatalf("re-saved checkpoint rejected: %v", err)
		}
		if len(re.Tables) != len(got.Tables) || re.Dim != got.Dim {
			t.Fatal("checkpoint unstable across round trips")
		}
	})
}

// FuzzHashIndex asserts range safety for arbitrary inputs.
func FuzzHashIndex(f *testing.F) {
	f.Add(int64(0), 1)
	f.Add(int64(-1), 50)
	f.Add(int64(1)<<62, 1_000_000)
	f.Fuzz(func(t *testing.T, raw int64, rows int) {
		if rows <= 0 {
			return
		}
		h := HashIndex(raw, rows)
		if h < 0 || h >= rows {
			t.Fatalf("HashIndex(%d, %d) = %d out of range", raw, rows, h)
		}
	})
}
