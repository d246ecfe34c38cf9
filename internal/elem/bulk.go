package elem

// EncodeInto encodes all of vs into dst, which must hold at least
// len(vs)*Size() bytes. For a POD codec (see pod) that is one memmove;
// any other codec encodes element by element.
func EncodeInto[T any](c Codec[T], dst []byte, vs []T) {
	sz := c.Size()
	if pod(c) {
		copy(dst[:len(vs)*sz], podBytes(vs, sz))
		return
	}
	for i, v := range vs {
		c.Encode(dst[i*sz:(i+1)*sz], v)
	}
}

// DecodeInto decodes len(dst) elements from src, which must hold at
// least len(dst)*Size() bytes: one memmove for a POD codec, element by
// element for any other.
func DecodeInto[T any](c Codec[T], dst []T, src []byte) {
	sz := c.Size()
	if pod(c) {
		copy(podBytes(dst, sz), src[:len(dst)*sz])
		return
	}
	for i := range dst {
		dst[i] = c.Decode(src[i*sz : (i+1)*sz])
	}
}

// Gather writes the wire bytes of vs[perm[0]], vs[perm[1]], … into dst,
// which must hold len(perm)·Size() bytes: for a POD codec by assigning
// through a view of dst, for any other into a fresh slice then encoded
// (OutView, WriteBack).
func Gather[T any](c Codec[T], dst []byte, vs []T, perm []int32) {
	out := OutView(c, dst[:len(perm)*c.Size()])
	for i, p := range perm {
		out[i] = vs[p]
	}
	WriteBack(c, dst, out)
}
