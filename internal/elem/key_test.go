package elem

import (
	"math/rand/v2"
	"testing"
)

// checkKeyOrder asserts the KeyedCodec contract on a pair: key order
// coarsens Less order, and exact keys decide equivalence.
func checkKeyOrder[T any](t *testing.T, kc KeyedCodec[T], a, b T) {
	t.Helper()
	ka, kb := kc.Key(a), kc.Key(b)
	if ka < kb && !kc.Less(a, b) {
		t.Fatalf("Key(a)=%#x < Key(b)=%#x but !Less(a,b) (a=%v b=%v)", ka, kb, a, b)
	}
	if kc.Less(a, b) && ka > kb {
		t.Fatalf("Less(a,b) but Key(a)=%#x > Key(b)=%#x (a=%v b=%v)", ka, kb, a, b)
	}
	if kc.KeyExact() && ka == kb && (kc.Less(a, b) || kc.Less(b, a)) {
		t.Fatalf("KeyExact but equal keys %#x order a=%v b=%v", ka, a, b)
	}
}

// adversarialU64 returns boundary patterns: high bits set (unsigned vs
// signed comparison bugs), all-ones, near-boundary neighbours.
func adversarialU64(rng *rand.Rand) []uint64 {
	vs := []uint64{
		0, 1, ^uint64(0), ^uint64(0) - 1,
		1 << 63, 1<<63 - 1, 1<<63 + 1,
		0x8000000000000000, 0x7FFFFFFFFFFFFFFF,
		0xFF00FF00FF00FF00, 0x00FF00FF00FF00FF,
	}
	for i := 0; i < 64; i++ {
		vs = append(vs, uint64(1)<<i, uint64(1)<<i-1)
	}
	for i := 0; i < 200; i++ {
		vs = append(vs, rng.Uint64())
	}
	return vs
}

func TestU64KeyOrderMatchesLess(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	vs := adversarialU64(rng)
	c := U64Codec{}
	for _, a := range vs {
		for _, b := range vs {
			checkKeyOrder[U64](t, c, U64(a), U64(b))
		}
	}
}

func TestKV16KeyOrderMatchesLess(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	c := KV16Codec{}
	keys := adversarialU64(rng)
	for _, ka := range keys {
		for _, kb := range keys {
			a := KV16{Key: ka, Val: rng.Uint64()}
			b := KV16{Key: kb, Val: rng.Uint64()}
			checkKeyOrder[KV16](t, c, a, b)
		}
	}
}

// rec100With builds a record with the given 10 key bytes.
func rec100With(key [10]byte, fill byte) Rec100 {
	var r Rec100
	copy(r[:10], key[:])
	for i := 10; i < 100; i++ {
		r[i] = fill
	}
	return r
}

func TestRec100KeyOrderMatchesLess(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	c := Rec100Codec{}
	var recs []Rec100
	// Shared 8-byte prefixes differing only in the 2-byte tail — the
	// truncated key cannot distinguish these, forcing the comparator
	// fallback.
	prefixes := [][8]byte{
		{0, 0, 0, 0, 0, 0, 0, 0},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{0x80, 0, 0, 0, 0, 0, 0, 0},
		{'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H'},
	}
	tails := [][2]byte{{0, 0}, {0, 1}, {1, 0}, {0xFF, 0xFE}, {0xFF, 0xFF}, {0x7F, 0x80}}
	for _, p := range prefixes {
		for _, tl := range tails {
			var k [10]byte
			copy(k[:8], p[:])
			k[8], k[9] = tl[0], tl[1]
			recs = append(recs, rec100With(k, byte(rng.Uint64())))
		}
	}
	// High-bit byte patterns and randoms.
	for i := 0; i < 150; i++ {
		var k [10]byte
		for j := range k {
			switch rng.Uint64N(3) {
			case 0:
				k[j] = byte(rng.Uint64())
			case 1:
				k[j] = 0x80 | byte(rng.Uint64N(4))
			default:
				k[j] = byte(rng.Uint64N(4))
			}
		}
		recs = append(recs, rec100With(k, byte(i)))
	}
	for _, a := range recs {
		for _, b := range recs {
			checkKeyOrder[Rec100](t, c, a, b)
		}
	}
}

func TestRec100TailTieBreak(t *testing.T) {
	c := Rec100Codec{}
	a := rec100With([10]byte{1, 2, 3, 4, 5, 6, 7, 8, 0x00, 0x01}, 0)
	b := rec100With([10]byte{1, 2, 3, 4, 5, 6, 7, 8, 0x00, 0x02}, 0)
	if c.Key(a) != c.Key(b) {
		t.Fatal("8-byte prefixes equal but keys differ")
	}
	if !c.Less(a, b) || c.Less(b, a) {
		t.Fatal("tail must decide the order when keys tie")
	}
	if c.KeyExact() {
		t.Fatal("Rec100 keys are truncated and must not claim exactness")
	}
}

func TestKeyedFallback(t *testing.T) {
	kc := Keyed[U64](U64Codec{})
	if !kc.KeyExact() || kc.Key(U64(7)) != 7 {
		t.Fatal("U64Codec must expose its exact key")
	}
	kc = Keyed[U64](closureCodec{})
	if kc.KeyExact() {
		t.Fatal("closure codec cannot be exact")
	}
	if kc.Key(U64(7)) != 0 || kc.Key(U64(1<<63)) != 0 {
		t.Fatal("fallback key must be constant zero")
	}
}

// TestKeysIntoMatchesKey pins the bulk-key contract: for every keyed
// codec, KeysInto must produce exactly Key applied elementwise — the
// radix engine's build pass depends on the two never diverging.
func TestKeysIntoMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))

	t.Run("u64", func(t *testing.T) {
		c := U64Codec{}
		vs := make([]U64, 0, 600)
		for _, k := range adversarialU64(rng) {
			vs = append(vs, U64(k))
		}
		dst := make([]uint64, len(vs))
		KeysInto[U64](c, dst, vs)
		for i, v := range vs {
			if dst[i] != c.Key(v) {
				t.Fatalf("pos %d: KeysInto %#x != Key %#x", i, dst[i], c.Key(v))
			}
		}
	})

	t.Run("kv16", func(t *testing.T) {
		c := KV16Codec{}
		vs := make([]KV16, 777) // odd length: exercises any block tail
		for i := range vs {
			vs[i] = KV16{Key: rng.Uint64(), Val: rng.Uint64()}
		}
		dst := make([]uint64, len(vs))
		KeysInto[KV16](c, dst, vs)
		for i, v := range vs {
			if dst[i] != c.Key(v) {
				t.Fatalf("pos %d: KeysInto %#x != Key %#x", i, dst[i], c.Key(v))
			}
		}
	})

	t.Run("rec100", func(t *testing.T) {
		c := Rec100Codec{}
		vs := make([]Rec100, 333)
		for i := range vs {
			var k [10]byte
			for j := range k {
				k[j] = byte(rng.Uint64())
			}
			vs[i] = rec100With(k, byte(i))
		}
		dst := make([]uint64, len(vs))
		KeysInto[Rec100](c, dst, vs)
		for i, v := range vs {
			if dst[i] != c.Key(v) {
				t.Fatalf("pos %d: KeysInto %#x != Key %#x", i, dst[i], c.Key(v))
			}
		}
	})
}

// TestKeysIntoFallback: a closure-only codec takes the Keyed fallback
// path, which is the constant-zero key.
func TestKeysIntoFallback(t *testing.T) {
	vs := []U64{7, 1 << 63, ^U64(0)}
	dst := []uint64{1, 2, 3}
	KeysInto[U64](closureCodec{}, dst, vs)
	for i, k := range dst {
		if k != 0 {
			t.Fatalf("pos %d: fallback key %#x, want 0", i, k)
		}
	}
}

// closureCodec implements only Codec, never KeyedCodec.
type closureCodec struct{}

func (closureCodec) Size() int                { return 8 }
func (closureCodec) Encode(dst []byte, v U64) { U64Codec{}.Encode(dst, v) }
func (closureCodec) Decode(src []byte) U64    { return U64Codec{}.Decode(src) }
func (closureCodec) Less(a, b U64) bool       { return a < b }
