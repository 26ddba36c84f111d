package store

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/obs"
	"sparseart/internal/tensor"
)

// requireSameResult asserts two read results are byte-identical:
// same points in the same order with bitwise-equal values.
func requireSameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Coords.Len() != b.Coords.Len() {
		t.Fatalf("%s: %d points with index, %d without", label, a.Coords.Len(), b.Coords.Len())
	}
	for i, n := 0, a.Coords.Len(); i < n; i++ {
		if !reflect.DeepEqual(a.Coords.At(i), b.Coords.At(i)) {
			t.Fatalf("%s: point %d is %v with index, %v without", label, i, a.Coords.At(i), b.Coords.At(i))
		}
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			t.Fatalf("%s: value %d is %x with index, %x without", label, i,
				math.Float64bits(a.Values[i]), math.Float64bits(b.Values[i]))
		}
	}
}

// TestDifferentialIndexKnob is the acceptance property: every read path
// returns byte-identical results with the fragment index on and off,
// across all organization kinds, over a store with overwrites,
// tombstones, a checkpoint (persisted index section), and a replayed
// log suffix.
func TestDifferentialIndexKnob(t *testing.T) {
	shape := tensor.Shape{24, 24, 24}
	kinds := append(core.PaperKinds(), core.COOSorted, core.BCOO)
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			fs := newSim(t)
			st, err := Create(fs, "t", kind, shape)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(23))
			for i := 0; i < 4; i++ {
				c, vals := randomPoints(rng, shape, 150)
				if _, err := st.Write(c, vals); err != nil {
					t.Fatal(err)
				}
			}
			del1, err := tensor.NewRegion(shape, []uint64{0, 0, 0}, []uint64{6, 6, 6})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.DeleteRegion(del1); err != nil {
				t.Fatal(err)
			}
			c, vals := randomPoints(rng, shape, 150)
			if _, err := st.Write(c, vals); err != nil {
				t.Fatal(err)
			}
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Mutations after the checkpoint live in the delta log: the
			// index-on handle must extend the persisted grid over them.
			del2, err := tensor.NewRegion(shape, []uint64{12, 12, 0}, []uint64{6, 6, 24})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.DeleteRegion(del2); err != nil {
				t.Fatal(err)
			}
			c, vals = randomPoints(rng, shape, 150)
			if _, err := st.Write(c, vals); err != nil {
				t.Fatal(err)
			}
			nfrags := len(st.frags)

			on, err := Open(fs, "t", WithFragmentIndex(true))
			if err != nil {
				t.Fatal(err)
			}
			off, err := Open(fs, "t", WithFragmentIndex(false))
			if err != nil {
				t.Fatal(err)
			}
			if on.cur.index == nil {
				t.Fatal("index-on handle published no index")
			}
			if on.cur.index.n != nfrags {
				t.Fatalf("index covers %d fragments, store has %d", on.cur.index.n, nfrags)
			}
			if off.cur.index != nil {
				t.Fatal("index-off handle published an index")
			}

			probe, _ := randomPoints(rng, shape, 200)
			ra, _, err := on.Read(probe)
			if err != nil {
				t.Fatal(err)
			}
			rb, _, err := off.Read(probe)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "Read", ra, rb)

			for _, ver := range []int{0, nfrags / 2, nfrags} {
				ra, _, err = on.ReadAsOf(probe, ver)
				if err != nil {
					t.Fatal(err)
				}
				rb, _, err = off.ReadAsOf(probe, ver)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, "ReadAsOf", ra, rb)
			}

			ra, _, err = on.ReadParallel(probe, 4)
			if err != nil {
				t.Fatal(err)
			}
			rb, _, err = off.ReadParallel(probe, 4)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "ReadParallel", ra, rb)

			regions := [][2][]uint64{
				{{0, 0, 0}, {24, 24, 24}}, // whole domain
				{{0, 0, 0}, {6, 6, 6}},    // fully tombstoned
				{{8, 8, 8}, {5, 5, 5}},    // interior window
				{{12, 12, 0}, {8, 8, 24}}, // straddles the second tombstone
			}
			for _, rg := range regions {
				region, err := tensor.NewRegion(shape, rg[0], rg[1])
				if err != nil {
					t.Fatal(err)
				}
				ra, _, err = on.ReadRegion(region)
				if err != nil {
					t.Fatal(err)
				}
				rb, _, err = off.ReadRegion(region)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, "ReadRegion", ra, rb)

				ra, _, err = on.ReadRegionScan(region)
				if err != nil {
					t.Fatal(err)
				}
				rb, _, err = off.ReadRegionScan(region)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, "ReadRegionScan", ra, rb)

				ra, _, err = on.ReadRegionAuto(region)
				if err != nil {
					t.Fatal(err)
				}
				rb, _, err = off.ReadRegionAuto(region)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, "ReadRegionAuto", ra, rb)

				// Every strategy under a worker pool: byte-identical to
				// serial, with the index on and off.
				for _, strat := range []Strategy{StrategyDefault, StrategyScan, StrategyAuto} {
					var serial *Result
					for _, workers := range []int{0, 4} {
						req := QueryRequest{Region: &region, AsOf: AsOfLatest, Strategy: strat, Workers: workers}
						label := fmt.Sprintf("Query %v workers=%d", strat, workers)
						ra, _, err = on.Query(context.Background(), req)
						if err != nil {
							t.Fatal(err)
						}
						rb, _, err = off.Query(context.Background(), req)
						if err != nil {
							t.Fatal(err)
						}
						requireSameResult(t, label, ra, rb)
						if serial == nil {
							serial = ra
						}
						requireSameResult(t, label+" vs serial", ra, serial)
					}
				}
			}
		})
	}
}

func TestFragmentIndexEnvKnob(t *testing.T) {
	fs := newSim(t)
	st, err := Create(fs, "t", core.Linear, tensor.Shape{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	writeBand(t, st, 0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	t.Setenv(fragIndexEnv, "off")
	st, err = Open(fs, "t")
	if err != nil {
		t.Fatal(err)
	}
	if st.cur.index != nil {
		t.Fatal("SPARSEART_FRAGINDEX=off still published an index")
	}

	// An explicit option wins over the environment.
	st, err = Open(fs, "t", WithFragmentIndex(true))
	if err != nil {
		t.Fatal(err)
	}
	if st.cur.index == nil {
		t.Fatal("WithFragmentIndex(true) lost to the environment")
	}
}

// TestFilterSkipsFragments checks the second pruning layer: a probe
// inside a fragment's bounding box but outside its per-dimension
// coordinate filter skips the fragment without fetching it, and the
// skip is counted.
func TestFilterSkipsFragments(t *testing.T) {
	fs := newSim(t)
	reg := obs.New()
	shape := tensor.Shape{64, 64, 64}
	st, err := Create(fs, "t", core.Linear, shape, WithObs(reg), WithFragmentIndex(true))
	if err != nil {
		t.Fatal(err)
	}
	// Two opposite corners: the bbox spans the whole domain, the filter
	// knows only coordinates {0, 63} exist per dimension.
	c := tensor.NewCoords(3, 0)
	c.Append(0, 0, 0)
	c.Append(63, 63, 63)
	if _, err := st.Write(c, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}

	key := obs.Name("store.filter.skipped", "kind", core.Linear.String())

	probe := tensor.NewCoords(3, 0)
	probe.Append(32, 32, 32) // inside the bbox, provably absent
	res, rep, err := st.Read(probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 0 {
		t.Fatalf("probe found %d points, want 0", res.Coords.Len())
	}
	if rep.Fragments != 0 {
		t.Fatalf("filtered read still visited %d fragments", rep.Fragments)
	}
	if n := reg.Snapshot().Counters[key]; n != 1 {
		t.Fatalf("store.filter.skipped = %d after point read, want 1", n)
	}

	region, err := tensor.NewRegion(shape, []uint64{30, 30, 30}, []uint64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.ReadRegionScan(region); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counters[key]; n != 2 {
		t.Fatalf("store.filter.skipped = %d after region scan, want 2", n)
	}

	// A probe the filter admits still reads through to the data.
	probe = tensor.NewCoords(3, 0)
	probe.Append(63, 63, 63)
	res, _, err = st.Read(probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 1 || res.Values[0] != 2 {
		t.Fatalf("admitted probe read %d points (%v), want the stored value", res.Coords.Len(), res.Values)
	}

	// With the index off, the filter layer is off too: no new skips.
	st2, err := Open(fs, "t", WithFragmentIndex(false), WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	probe = tensor.NewCoords(3, 0)
	probe.Append(32, 32, 32)
	if _, _, err := st2.Read(probe); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counters[key]; n != 2 {
		t.Fatalf("store.filter.skipped = %d with index off, want 2 (unchanged)", n)
	}
}

// encodeManifestV1 re-encodes a decoded manifest in the legacy SMN1
// layout: no flags bit 1, no filter blobs, no index section.
func encodeManifestV1(m *manifestState) []byte {
	w := buf.NewWriter(256)
	w.U32(manifestMagic)
	w.U8(uint8(m.kind))
	w.U8(uint8(m.codec))
	w.U16(uint16(m.shape.Dims()))
	w.RawU64s(m.shape)
	w.U64(m.nextID)
	w.U64(uint64(len(m.frags)))
	for _, fr := range m.frags {
		w.Bytes32([]byte(fr.name))
		w.U64(fr.nnz)
		w.U64(uint64(fr.bytes))
		if fr.nnz > 0 || fr.tomb {
			w.RawU64s(fr.bbox.Min)
			w.RawU64s(fr.bbox.Max)
		} else {
			w.RawU64s(make([]uint64, 2*m.shape.Dims()))
		}
		if fr.tomb {
			w.U8(1)
			w.RawU64s(fr.tombRegion.Start)
			w.RawU64s(fr.tombRegion.Size)
		} else {
			w.U8(0)
		}
	}
	return w.Bytes()
}

// TestOpenLegacyManifestV1 is the compatibility fixture: a store whose
// checkpoint predates the index and filter sections must open cleanly,
// rebuild the index from the fragment list, treat every fragment as
// filterless ("maybe"), and serve identical data. The next checkpoint
// upgrades it to SMN2.
func TestOpenLegacyManifestV1(t *testing.T) {
	fs := newSim(t)
	shape := tensor.Shape{16, 16}
	st, err := Create(fs, "t", core.CSF, shape)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 3; i++ {
		c, vals := randomPoints(rng, shape, 40)
		if _, err := st.Write(c, vals); err != nil {
			t.Fatal(err)
		}
	}
	region, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.DeleteRegion(region); err != nil {
		t.Fatal(err)
	}
	full, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := st.ReadRegion(full)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the checkpoint in the legacy format.
	data, err := fs.ReadFile("t/" + manifestName)
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.version != 2 || m.index == nil {
		t.Fatalf("fresh checkpoint: version %d, index %v — expected SMN2 with index", m.version, m.index != nil)
	}
	if err := fs.WriteFile("t/"+manifestName, encodeManifestV1(m)); err != nil {
		t.Fatal(err)
	}

	st, err = Open(fs, "t", WithFragmentIndex(true))
	if err != nil {
		t.Fatalf("legacy manifest failed to open: %v", err)
	}
	if st.cur.index == nil {
		t.Fatal("legacy store published no index — rebuild-on-open missing")
	}
	for _, fr := range st.frags {
		if fr.filter != nil {
			t.Fatalf("legacy fragment %s grew a filter out of nowhere", fr.name)
		}
	}
	got, _, err := st.ReadRegion(full)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "legacy ReadRegion", got, want)

	// One more write, then Close folds a fresh checkpoint: the store is
	// silently upgraded to SMN2 with an index section.
	c := tensor.NewCoords(2, 0)
	c.Append(8, 8)
	if _, err := st.Write(c, []float64{9}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = fs.ReadFile("t/" + manifestName)
	if err != nil {
		t.Fatal(err)
	}
	m, err = decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.version != 2 || m.index == nil {
		t.Fatalf("post-upgrade checkpoint: version %d, index %v — want SMN2 with index", m.version, m.index != nil)
	}
}

// TestOpenRejectsStaleIndexSection: a checkpoint whose index section
// disagrees with its fragment list (hand-corrupted) must still open —
// the section is discarded and the index rebuilt.
func TestOpenRejectsStaleIndexSection(t *testing.T) {
	fs := newSim(t)
	st, err := Create(fs, "t", core.Linear, tensor.Shape{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	writeBand(t, st, 0)
	writeBand(t, st, 1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := fs.ReadFile("t/" + manifestName)
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode with an index section claiming the wrong fragment count.
	wrong := buildFragIndex(tensor.Shape{16, 16}, m.frags)
	wrong.n = len(m.frags) + 7
	body := buf.NewWriter(128)
	wrong.encode(body)
	tail := buf.NewWriter(64)
	tail.U8(1)
	tail.Bytes32(body.Bytes())
	out := append(append([]byte(nil), data[:indexSectionOffset(data)]...), tail.Bytes()...)
	if err := fs.WriteFile("t/"+manifestName, out); err != nil {
		t.Fatal(err)
	}

	st, err = Open(fs, "t", WithFragmentIndex(true))
	if err != nil {
		t.Fatalf("store with stale index section failed to open: %v", err)
	}
	if st.cur.index == nil {
		t.Fatal("stale section: index not rebuilt")
	}
	if st.cur.index.n != len(st.frags) {
		t.Fatalf("rebuilt index covers %d fragments, store has %d", st.cur.index.n, len(st.frags))
	}
}

// indexSectionOffset finds where the trailing index section starts in
// an SMN2 checkpoint by re-walking the fragment entries.
func indexSectionOffset(data []byte) int {
	r := buf.NewReader(data)
	r.U32()
	r.U8()
	r.U8()
	dims := int(r.U16())
	r.RawU64s(uint64(dims))
	r.U64()
	count := r.U64()
	for i := uint64(0); i < count; i++ {
		r.Bytes32()
		r.U64()
		r.U64()
		r.RawU64s(uint64(dims))
		r.RawU64s(uint64(dims))
		flags := r.U8()
		if flags&1 != 0 {
			r.RawU64s(uint64(dims))
			r.RawU64s(uint64(dims))
		}
		if flags&2 != 0 {
			r.Bytes32()
		}
	}
	return len(data) - r.Remaining()
}
