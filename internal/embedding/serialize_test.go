package embedding

import (
	"bytes"
	"testing"

	"pgasemb/internal/sim"
	"pgasemb/internal/tensor"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := sim.NewRNG(31)
	c := NewCollection([]int{3, 1, 7}, 40, 8, rng)
	var buf bytes.Buffer
	if err := SaveCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCollection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != 8 || len(got.Tables) != 3 {
		t.Fatalf("loaded shape wrong: dim=%d tables=%d", got.Dim, len(got.Tables))
	}
	for i := range c.Tables {
		if got.FeatureIDs[i] != c.FeatureIDs[i] {
			t.Fatalf("feature IDs differ at %d", i)
		}
		if !tensor.Equal(got.Tables[i].Weights, c.Tables[i].Weights) {
			t.Fatalf("table %d weights differ after round trip", i)
		}
	}
	// Loaded tables keep working.
	out := make([]float32, 8)
	got.Tables[0].LookupPooled([]int64{5, 9}, out)
	want := make([]float32, 8)
	c.Tables[0].LookupPooled([]int64{5, 9}, want)
	for i := range out {
		if out[i] != want[i] {
			t.Fatal("loaded table lookup differs")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a checkpoint at all........"),
		{0x50, 0x47, 0x45, 0x42}, // magic only, truncated
	}
	for i, c := range cases {
		if _, err := LoadCollection(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	c := NewCollection([]int{0}, 4, 2, sim.NewRNG(1))
	var buf bytes.Buffer
	if err := SaveCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // bump version byte
	if _, err := LoadCollection(bytes.NewReader(b)); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestLoadRejectsBadMode(t *testing.T) {
	c := NewCollection([]int{0}, 4, 2, sim.NewRNG(1))
	var buf bytes.Buffer
	if err := SaveCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	// Only sum pooling (0) exists; the old mean (1) and max (2) words and
	// garbage are all rejected.
	for _, mode := range []byte{1, 2, 77} {
		b := append([]byte(nil), buf.Bytes()...)
		b[8] = mode // mode field
		if _, err := LoadCollection(bytes.NewReader(b)); err == nil {
			t.Errorf("pooling mode %d accepted", mode)
		}
	}
}

func TestLoadTruncatedWeights(t *testing.T) {
	c := NewCollection([]int{0}, 10, 4, sim.NewRNG(2))
	var buf bytes.Buffer
	if err := SaveCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:buf.Len()-17] // chop mid-weights
	if _, err := LoadCollection(bytes.NewReader(b)); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}
