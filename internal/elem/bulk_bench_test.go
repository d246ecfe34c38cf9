package elem

import (
	"math/rand/v2"
	"testing"
)

const benchN = 8192 // elements per op: a few disk blocks' worth

func benchKVs() []KV16 {
	rng := rand.New(rand.NewPCG(1, 2))
	vs := make([]KV16, benchN)
	for i := range vs {
		vs[i] = KV16{Key: rng.Uint64(), Val: rng.Uint64()}
	}
	return vs
}

func benchU64s() []U64 {
	rng := rand.New(rand.NewPCG(3, 4))
	vs := make([]U64, benchN)
	for i := range vs {
		vs[i] = U64(rng.Uint64())
	}
	return vs
}

func benchRecs() []Rec100 {
	rng := rand.New(rand.NewPCG(5, 6))
	vs := make([]Rec100, benchN)
	for i := range vs {
		for j := range vs[i] {
			vs[i][j] = byte(rng.UintN(256))
		}
	}
	return vs
}

// BenchmarkCodecBulk measures EncodeInto and DecodeInto on the built-in
// codecs, the POD memmove (the zero-copy data plane); compare against BenchmarkCodecPerElem, the per-element
// Encode/Decode loop the phases used before.
func BenchmarkCodecBulk(b *testing.B) {
	b.Run("EncodeKV16", func(b *testing.B) {
		c := KV16Codec{}
		vs := benchKVs()
		dst := make([]byte, benchN*c.Size())
		b.SetBytes(int64(len(dst)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			EncodeInto(c, dst, vs)
		}
	})
	b.Run("DecodeKV16", func(b *testing.B) {
		c := KV16Codec{}
		src := EncodeSlice[KV16](c, benchKVs())
		dst := make([]KV16, benchN)
		b.SetBytes(int64(len(src)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			DecodeInto(c, dst, src)
		}
	})
	b.Run("EncodeU64", func(b *testing.B) {
		c := U64Codec{}
		vs := benchU64s()
		dst := make([]byte, benchN*c.Size())
		b.SetBytes(int64(len(dst)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			EncodeInto(c, dst, vs)
		}
	})
	b.Run("EncodeRec100", func(b *testing.B) {
		c := Rec100Codec{}
		vs := benchRecs()
		dst := make([]byte, benchN*c.Size())
		b.SetBytes(int64(len(dst)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			EncodeInto(c, dst, vs)
		}
	})
}

// BenchmarkCodecPerElem is the pre-bulk reference — exactly what the
// phases used to do per block and per message: EncodeSlice/DecodeSlice
// with a fresh result buffer and one virtual Encode/Decode call per
// element (perElemEncode/perElemDecode mirror the old implementations).
func BenchmarkCodecPerElem(b *testing.B) {
	b.Run("EncodeKV16", func(b *testing.B) {
		c := KV16Codec{}
		vs := benchKVs()
		b.SetBytes(int64(benchN * c.Size()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchBytesSink = perElemEncode[KV16](c, vs)
		}
	})
	b.Run("DecodeKV16", func(b *testing.B) {
		c := KV16Codec{}
		src := EncodeSlice[KV16](c, benchKVs())
		b.SetBytes(int64(len(src)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchKVSink = perElemDecode[KV16](c, src, benchN)
		}
	})
	b.Run("EncodeU64", func(b *testing.B) {
		c := U64Codec{}
		vs := benchU64s()
		b.SetBytes(int64(benchN * c.Size()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchBytesSink = perElemEncode[U64](c, vs)
		}
	})
	b.Run("EncodeRec100", func(b *testing.B) {
		c := Rec100Codec{}
		vs := benchRecs()
		b.SetBytes(int64(benchN * c.Size()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchBytesSink = perElemEncode[Rec100](c, vs)
		}
	})
}

var (
	benchBytesSink []byte
	benchKVSink    []KV16
)
