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
