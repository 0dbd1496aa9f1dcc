package api

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecodeFloats holds the shard row codec to its contract: any
// float64 bit patterns, NaN payloads and signed zeros included, come
// back from DecodeFloats(EncodeFloats(v)) bit for bit; and any text
// gives floats or an error, never a panic, with accepted floats
// surviving the same round trip.
func FuzzDecodeFloats(f *testing.F) {
	f.Add([]byte{}, "")
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(-0.0)), "AAAAAAAA8D8=")
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x7ff8000000000001), "not base64")
	f.Add([]byte{1, 2, 3}, "AAAA")
	f.Fuzz(func(t *testing.T, raw []byte, text string) {
		v := make([]float64, len(raw)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		roundTrip(t, v)
		if got, err := DecodeFloats(text); err == nil {
			roundTrip(t, got)
		}
	})
}

func roundTrip(t *testing.T, v []float64) {
	t.Helper()
	got, err := DecodeFloats(EncodeFloats(v))
	if err != nil {
		t.Fatalf("%d floats: %v", len(v), err)
	}
	if len(got) != len(v) {
		t.Fatalf("%d floats came back as %d", len(v), len(got))
	}
	for i := range v {
		if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
			t.Fatalf("float %d: bits %016x came back as %016x", i, math.Float64bits(v[i]), math.Float64bits(got[i]))
		}
	}
}
