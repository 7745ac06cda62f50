package concurrent

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kv"
	"repro/internal/updatable"
)

// checkIndex compares every read path of ix against reference ranks over
// the sorted live multiset ref: Find, Lookup, the snapshot's Count, Scan,
// FindBatch, FindBatchTagged and LookupBatch.
func checkIndex(t *testing.T, label string, ix *Index[uint64], ref []uint64, qs []uint64) {
	t.Helper()
	if got := ix.Len(); got != len(ref) {
		t.Fatalf("%s: Len = %d, want %d", label, got, len(ref))
	}
	s := ix.snap.Load()
	for _, q := range qs {
		want := kv.LowerBound(ref, q)
		wantCount := kv.UpperBound(ref, q) - want
		if got := ix.Find(q); got != want {
			t.Fatalf("%s: Find(%d) = %d, want %d", label, q, got, want)
		}
		if r, f := ix.Lookup(q); r != want || f != (wantCount > 0) {
			t.Fatalf("%s: Lookup(%d) = (%d,%v), want (%d,%v)", label, q, r, f, want, wantCount > 0)
		}
		if got := s.count(q); got != wantCount {
			t.Fatalf("%s: count(%d) = %d, want %d", label, q, got, wantCount)
		}
	}
	out := ix.FindBatch(qs, nil)
	tagged, _ := ix.FindBatchTagged(qs, nil)
	ranks, found := ix.LookupBatch(qs, nil, nil)
	for i, q := range qs {
		want := kv.LowerBound(ref, q)
		if out[i] != want || tagged[i] != want || ranks[i] != want {
			t.Fatalf("%s: batch ranks for %d = (%d,%d,%d), want %d", label, q, out[i], tagged[i], ranks[i], want)
		}
		if wantFound := want < len(ref) && ref[want] == q; found[i] != wantFound {
			t.Fatalf("%s: LookupBatch found %d = %v, want %v", label, q, found[i], wantFound)
		}
	}
	got := collect(ix)
	if len(got) != len(ref) {
		t.Fatalf("%s: Scan yielded %d keys, want %d", label, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("%s: Scan[%d] = %d, want %d", label, i, got[i], ref[i])
		}
	}
}

// probes draws query keys over the key range, half of them exact keys.
func probes(keys []uint64, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]uint64, 0, 401)
	for i := 0; i < 200; i++ {
		qs = append(qs, rng.Uint64()%(keys[len(keys)-1]+2), keys[rng.Intn(len(keys))])
	}
	return append(qs, ^uint64(0))
}

// writeMix applies n random inserts and deletes through ix and ref, and
// returns how many deletes hit.
func writeMix(t *testing.T, ix *Index[uint64], ref *reference, keys []uint64, n int, rng *rand.Rand) int {
	t.Helper()
	hits := 0
	for i := 0; i < n; i++ {
		k := keys[rng.Intn(len(keys))]
		if rng.Intn(2) == 0 {
			ix.Insert(k + 1)
			ref.insert(k + 1)
			continue
		}
		got, want := ix.Delete(k), ref.delete(k)
		if got != want {
			t.Fatalf("Delete(%d) = %v, want %v", k, got, want)
		}
		if got {
			hits++
		}
	}
	return hits
}

// TestReadPathsAcrossTombstoneStates checks every read path against
// reference ranks for a concurrent index in each state its view and
// generations can be in: fresh (no tombstones, no pending writes),
// pending generations past a sealed head, after compaction, and a Wrap of
// an updatable index that already has base tombstones and a delta.
func TestReadPathsAcrossTombstoneStates(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 5_000, 21)
	qs := probes(keys, 4)

	t.Run("New", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		ix, err := New(keys, Config{Policy: CompactionPolicy{Kind: Manual}})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		ref := &reference{keys: append([]uint64(nil), keys...)}
		checkIndex(t, "fresh", ix, ref.keys, qs)
		if writeMix(t, ix, ref, keys, 3*maxHeadLen, rng) == 0 {
			t.Fatal("no deletes hit")
		}
		if len(ix.snap.Load().gens) < 2 {
			t.Fatal("writes did not seal a generation")
		}
		checkIndex(t, "pending", ix, ref.keys, qs)
		if err := ix.Compact(); err != nil {
			t.Fatal(err)
		}
		if ix.Pending() != 0 || ix.snap.Load().view.Tombstones() != 0 {
			t.Fatal("compaction left pending writes or tombstones")
		}
		checkIndex(t, "compacted", ix, ref.keys, qs)
		writeMix(t, ix, ref, keys, 300, rng)
		checkIndex(t, "compacted+pending", ix, ref.keys, qs)
	})

	t.Run("Wrap", func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		base, err := updatable.New(keys, updatable.Config{MaxDelta: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		ref := &reference{keys: append([]uint64(nil), keys...)}
		for i := 0; i < 400; i++ {
			k := keys[rng.Intn(len(keys))]
			if i%3 == 0 {
				if err := base.Insert(k + 1); err != nil {
					t.Fatal(err)
				}
				ref.insert(k + 1)
			} else if got, want := base.Delete(k), ref.delete(k); got != want {
				t.Fatalf("seed Delete(%d) = %v, want %v", k, got, want)
			}
		}
		if base.Stats().Tombstones == 0 || base.DeltaLen() == 0 {
			t.Fatal("wrap precondition: want both tombstones and delta entries")
		}
		ix, err := Wrap(base, CompactionPolicy{Kind: Manual})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		checkIndex(t, "wrapped", ix, ref.keys, qs)
		writeMix(t, ix, ref, keys, 2*maxHeadLen, rng)
		checkIndex(t, "wrapped+pending", ix, ref.keys, qs)
		if err := ix.Compact(); err != nil {
			t.Fatal(err)
		}
		checkIndex(t, "wrapped+compacted", ix, ref.keys, qs)
	})
}
