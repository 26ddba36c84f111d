package coretest

import (
	"fmt"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// FuzzOpen is the shared fuzz body for format payload parsers: Open
// must reject or accept arbitrary bytes without panicking, and any
// accepted reader must answer lookups without panicking either. An
// accepted reader that implements core.RegionScanner must also scan a
// fixed region without panicking and agree with its filtered Each.
func FuzzOpen(f *testing.F, format core.Format) {
	shape, c := PaperExample()
	built, err := format.Build(c, shape)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(built.Payload)
	f.Add([]byte{})
	if len(built.Payload) > 8 {
		f.Add(built.Payload[:8])
		mangled := append([]byte(nil), built.Payload...)
		mangled[len(mangled)/2] ^= 0xFF
		f.Add(mangled)
	}
	// Four row-major runs, so GCSR++ seeks on the example payload.
	region := tensor.Region{Start: []uint64{0, 1, 1}, Size: []uint64{2, 2, 2}}
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := format.Open(payload, shape)
		if err != nil {
			return
		}
		if r.NNZ() < 0 {
			t.Fatal("negative NNZ")
		}
		// Probe a few points; the reader must not panic even if the
		// payload was garbage it happened to accept.
		r.Lookup([]uint64{0, 0, 0})
		r.Lookup([]uint64{2, 2, 2})
		it, ok := r.(core.Iterator)
		if !ok {
			return
		}
		// Bound the walks on nonsense structures.
		const limit = 1000
		var want []string
		steps, complete := 0, true
		it.Each(func(p []uint64, slot int) bool {
			if region.Contains(p) {
				want = append(want, fmt.Sprint(p, slot))
			}
			steps++
			complete = steps < limit
			return complete
		})
		sc, ok := r.(core.RegionScanner)
		if !ok {
			return
		}
		var got []string
		sc.ScanRegion(region, func(p []uint64, slot int) bool {
			got = append(got, fmt.Sprint(p, slot))
			return len(got) < limit
		})
		// A truncated Each only fixes a prefix of the scan.
		if !complete && len(got) > len(want) {
			got = got[:len(want)]
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("ScanRegion(%v) = %v, filtered Each = %v", region, got, want)
		}
	})
}
