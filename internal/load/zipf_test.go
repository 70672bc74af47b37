package load

import (
	"math/rand"
	"slices"
	"testing"
)

// TestZipfRankSequence pins the shared skewed draw to a rank sequence
// recorded from the two inlined copies it replaced (seed 42, skew 1.1,
// five ranks), and to one Float64 per draw: the source must stand where
// the recording left it, or every stream derived after a draw moves.
func TestZipfRankSequence(t *testing.T) {
	want := []int{0, 0, 1, 0, 0, 0, 2, 0, 0, 1, 2, 0, 0, 0, 1, 1, 2, 2, 4, 4, 0, 0, 0, 0}
	z := NewZipf(5, 1.1)
	rng := rand.New(rand.NewSource(42))
	got := make([]int, len(want))
	for i := range got {
		got[i] = z.Rank(rng)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ranks %v, want %v", got, want)
	}
	if next := rng.Int63(); next != 6018823476402388478 {
		t.Fatalf("source stands at %d after %d draws, want 6018823476402388478 (one Float64 per draw)", next, len(want))
	}
}
