package updatable

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kv"
	"repro/internal/snapshot"
)

// checkView compares every read path of v against reference ranks over the
// sorted live multiset ref: Find, Lookup, Count, LookupCount, Scan and the
// batch entry points.
func checkView(t *testing.T, label string, v *View[uint64], ref []uint64, qs []uint64) {
	t.Helper()
	if got := v.Len(); got != len(ref) {
		t.Fatalf("%s: Len = %d, want %d", label, got, len(ref))
	}
	for _, q := range qs {
		want := kv.LowerBound(ref, q)
		wantCount := kv.UpperBound(ref, q) - want
		if got := v.Find(q); got != want {
			t.Fatalf("%s: Find(%d) = %d, want %d", label, q, got, want)
		}
		if r, f := v.Lookup(q); r != want || f != (wantCount > 0) {
			t.Fatalf("%s: Lookup(%d) = (%d,%v), want (%d,%v)", label, q, r, f, want, wantCount > 0)
		}
		if got := v.Count(q); got != wantCount {
			t.Fatalf("%s: Count(%d) = %d, want %d", label, q, got, wantCount)
		}
		if r, c := v.LookupCount(q); r != want || c != wantCount {
			t.Fatalf("%s: LookupCount(%d) = (%d,%d), want (%d,%d)", label, q, r, c, want, wantCount)
		}
	}
	out := v.FindBatch(qs, nil)
	ranks, found := v.LookupBatch(qs, nil, nil)
	cranks, counts := v.LookupCountBatch(qs, nil, nil)
	for i, q := range qs {
		want := kv.LowerBound(ref, q)
		wantCount := kv.UpperBound(ref, q) - want
		if out[i] != want || ranks[i] != want || cranks[i] != want {
			t.Fatalf("%s: batch ranks for %d = (%d,%d,%d), want %d", label, q, out[i], ranks[i], cranks[i], want)
		}
		if found[i] != (wantCount > 0) || counts[i] != wantCount {
			t.Fatalf("%s: batch found/count for %d = (%v,%d), want (%v,%d)", label, q, found[i], counts[i], wantCount > 0, wantCount)
		}
	}
	var scanned []uint64
	v.Scan(0, ^uint64(0), func(k uint64) bool { scanned = append(scanned, k); return true })
	if len(scanned) != len(ref) {
		t.Fatalf("%s: Scan yielded %d keys, want %d", label, len(scanned), len(ref))
	}
	for i := range ref {
		if scanned[i] != ref[i] {
			t.Fatalf("%s: Scan[%d] = %d, want %d", label, i, scanned[i], ref[i])
		}
	}
	// A bounded scan starting mid-range, across any tombstone run.
	if len(ref) > 2 {
		lo, hi := ref[len(ref)/3], ref[2*len(ref)/3]
		var got []uint64
		v.Scan(lo, hi, func(k uint64) bool { got = append(got, k); return true })
		want := ref[kv.LowerBound(ref, lo):kv.UpperBound(ref, hi)]
		if len(got) != len(want) {
			t.Fatalf("%s: Scan[%d,%d] yielded %d keys, want %d", label, lo, hi, len(got), len(want))
		}
	}
}

// tombstoneQueries draws probe keys over and just beyond the key range,
// half of them exact live or deleted keys.
func tombstoneQueries(keys []uint64, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]uint64, 0, 600)
	for i := 0; i < 300; i++ {
		qs = append(qs, rng.Uint64()%(keys[len(keys)-1]+2))
		k := keys[rng.Intn(len(keys))]
		qs = append(qs, k+uint64(rng.Intn(2)))
	}
	return append(qs, 0, keys[0], keys[len(keys)-1], ^uint64(0))
}

// hasTombstoneState reports whether the view holds either tombstone array.
func hasTombstoneState(v *View[uint64]) bool { return v.dead != nil || v.delTree != nil }

// TestTombstoneStatesMatchReference checks every read path against
// reference ranks in each tombstone state a view can be in: never deleted,
// deleted, compacted after deletes, frozen under later writes, and
// persisted and reloaded (heap and mapped) with and without tombstones.
func TestTombstoneStatesMatchReference(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 4_000, 13)
	// Duplicates, so deletes and counts see runs longer than one.
	keys = append(keys, keys[100], keys[100], keys[2000])
	slices.Sort(keys)
	qs := tombstoneQueries(keys, 3)
	rng := rand.New(rand.NewSource(17))

	ix, err := New(keys, Config{MaxDelta: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{keys: append([]uint64(nil), keys...)}
	checkView(t, "fresh", ix.View(), ref.keys, qs)

	insertSome := func(n int) {
		for i := 0; i < n; i++ {
			k := rng.Uint64() % (keys[len(keys)-1] + 2)
			if err := ix.Insert(k); err != nil {
				t.Fatal(err)
			}
			ref.insert(k)
		}
	}
	insertSome(100)
	checkView(t, "delta only", ix.View(), ref.keys, qs)

	deleteSome := func(n int) {
		for i := 0; i < n; i++ {
			k := keys[rng.Intn(len(keys))]
			if got, want := ix.Delete(k), ref.delete(k); got != want {
				t.Fatalf("Delete(%d) = %v, want %v", k, got, want)
			}
		}
	}
	deleteSome(300)
	if ix.Stats().Tombstones == 0 {
		t.Fatal("no base deletes landed")
	}
	checkView(t, "base deletes", ix.View(), ref.keys, qs)

	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	checkView(t, "delete+compact", ix.View(), ref.keys, qs)
	deleteSome(200)
	checkView(t, "delete+compact+delete", ix.View(), ref.keys, qs)

	// A frozen view keeps answering its own state while the index takes
	// deletes and inserts: first a view frozen without tombstone state
	// (the index's next delete creates it), then one frozen with it.
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"frozen without tombstones", "frozen with tombstones"} {
		frozen := ix.Freeze()
		hadState := hasTombstoneState(frozen)
		frozenRef := append([]uint64(nil), ref.keys...)
		deleteSome(200)
		insertSome(100)
		if hasTombstoneState(frozen) != hadState {
			t.Fatalf("%s: a delete after Freeze changed the frozen view's tombstone state", label)
		}
		checkView(t, label, frozen, frozenRef, qs)
		checkView(t, label+", index written after freeze", ix.View(), ref.keys, qs)
	}

	// Persisted and reloaded, with tombstones (the current state) and
	// without (after a compaction).
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		compact bool
	}{{"tombstones", false}, {"no tombstones", true}} {
		if tc.compact {
			if err := ix.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, tc.name+".snap")
		if err := SaveFileV2(path, ix); err != nil {
			t.Fatal(err)
		}
		heap, err := LoadFile[uint64](path)
		if err != nil {
			t.Fatal(err)
		}
		checkView(t, "heap-loaded, "+tc.name, heap.View(), ref.keys, qs)
		mapped, ok, err := MapViewFile[uint64](path)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("MapViewFile fell back to the heap load")
		}
		checkView(t, "mapped, "+tc.name, mapped.View(), ref.keys, qs)
		if got := hasTombstoneState(heap.View()) || hasTombstoneState(mapped.View()); got != !tc.compact {
			t.Fatalf("%s: loaded tombstone state present = %v, want %v", tc.name, got, !tc.compact)
		}
		// Both loaded indexes stay writable from there.
		for _, loaded := range []*Index[uint64]{heap, mapped} {
			k := ref.keys[len(ref.keys)/2]
			if !loaded.Delete(k) {
				t.Fatalf("%s: loaded Delete(%d) missed", tc.name, k)
			}
			want := append([]uint64(nil), ref.keys...)
			i := kv.LowerBound(want, k)
			want = append(want[:i], want[i+1:]...)
			checkView(t, "loaded+delete, "+tc.name, loaded.View(), want, qs)
		}
	}
}

// TestTombstoneStateIsLazy: fresh, compacted and zero-tombstone-loaded
// views hold no tombstone arrays, and the first base delete adds exactly
// the bitmap and Fenwick tree — 9 bytes per key plus the tree's root slot.
func TestTombstoneStateIsLazy(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 64, 10_000, 5)
	n := len(keys)
	ix, err := New(keys, Config{MaxDelta: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if hasTombstoneState(ix.View()) {
		t.Fatal("fresh view holds tombstone state")
	}
	before := ix.SizeBytes()
	// A delta-only delete and a miss create nothing.
	if err := ix.Insert(7); err != nil {
		t.Fatal(err)
	}
	if !ix.Delete(7) || ix.Delete(keys[n-1]+1) {
		t.Fatal("delta delete / miss misreported")
	}
	if hasTombstoneState(ix.View()) {
		t.Fatal("a delete that touched no base key created tombstone state")
	}
	if !ix.Delete(keys[n/2]) {
		t.Fatal("base delete missed")
	}
	if !hasTombstoneState(ix.View()) {
		t.Fatal("base delete created no tombstone state")
	}
	if got, want := ix.SizeBytes()-before, n+8*(n+1); got != want {
		t.Fatalf("tombstone state costs %d bytes, want %d (9 B/key)", got, want)
	}

	// Loading a snapshot with tombstones restores them; one without
	// restores none.
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	withDead, err := Load[uint64](bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if !hasTombstoneState(withDead.View()) || withDead.SizeBytes() != ix.SizeBytes() {
		t.Fatal("loaded snapshot with a tombstone lost its tombstone state")
	}

	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if hasTombstoneState(ix.View()) {
		t.Fatal("compacted view holds tombstone state")
	}
	buf.Reset()
	if err := Save(&buf, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load[uint64](bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if hasTombstoneState(loaded.View()) {
		t.Fatal("zero-tombstone load holds tombstone state")
	}
	path := filepath.Join(t.TempDir(), "compacted.snap")
	if err := SaveFileV2(path, ix); err != nil {
		t.Fatal(err)
	}
	mapped, ok, err := MapViewFile[uint64](path)
	if err != nil || !ok {
		t.Fatalf("MapViewFile: mapped=%v err=%v", ok, err)
	}
	if hasTombstoneState(mapped.View()) {
		t.Fatal("zero-tombstone mapped open holds tombstone state")
	}
	if loaded.SizeBytes() != ix.SizeBytes() || mapped.SizeBytes() != ix.SizeBytes() {
		t.Fatalf("SizeBytes heap %d / mapped %d, want %d", loaded.SizeBytes(), mapped.SizeBytes(), ix.SizeBytes())
	}
}

// TestZeroTombstoneBitmapFormat: a view without tombstone state still
// writes its ⌈n/8⌉-byte all-zero bitmap section, so the container is
// byte-identical (checksums included) to one written section by section
// with an explicit zero bitmap, and a save → load → save cycle reproduces
// it exactly.
func TestZeroTombstoneBitmapFormat(t *testing.T) {
	for _, n := range []int{0, 1, 8, 1_001} {
		keys := dataset.MustGenerate(dataset.Face, 64, n, 9)
		ix, err := New(keys, Config{MaxDelta: 333})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Insert(5); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := Save(&got, ix); err != nil {
			t.Fatal(err)
		}

		// The expected container, written by hand.
		v := ix.View()
		var want bytes.Buffer
		sw, err := snapshot.NewWriter(&want, SnapshotKind)
		if err != nil {
			t.Fatal(err)
		}
		meta := make([]byte, 0, 36)
		meta = binary.LittleEndian.AppendUint32(meta, uint32(ix.cfg.Layer.Mode))
		meta = binary.LittleEndian.AppendUint64(meta, uint64(ix.cfg.Layer.M))
		meta = binary.LittleEndian.AppendUint64(meta, uint64(ix.cfg.Layer.SampleStride))
		meta = binary.LittleEndian.AppendUint64(meta, 333)
		meta = binary.LittleEndian.AppendUint64(meta, 0) // deadCount
		if err := sw.Bytes(secUpdMeta, meta); err != nil {
			t.Fatal(err)
		}
		if err := v.table.PersistSnapshot(sw); err != nil {
			t.Fatal(err)
		}
		if err := sw.Bytes(secUpdDead, make([]byte, (n+7)/8)); err != nil {
			t.Fatal(err)
		}
		if err := snapshot.WriteKeySection(sw, secUpdDelta, v.delta); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: zero-tombstone container differs from the explicit zero-bitmap layout", n)
		}

		loaded, err := Load[uint64](bytes.NewReader(got.Bytes()), int64(got.Len()))
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := Save(&again, loaded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), got.Bytes()) {
			t.Fatalf("n=%d: save → load → save is not byte-identical", n)
		}
	}
}
