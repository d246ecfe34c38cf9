package tcp

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"demsort/internal/bufpool"
	"demsort/internal/cluster"
)

// ---------------------------------------------------------------------
// Collectives from point-to-point.
// ---------------------------------------------------------------------

// Barrier implements cluster.Transport: a binomial-tree reduce to
// rank 0 followed by a tree release, O(log P) rounds each way.
func (m *Machine) Barrier() {
	if m.p == 1 {
		return
	}
	children, parent := btreeUp(m.rank, m.p)
	for _, c := range children {
		bufpool.Put(m.recvFrame(c, tagBarrier))
	}
	if parent >= 0 {
		m.sendFrame(parent, tagBarrier, nil)
		bufpool.Put(m.recvFrame(parent, tagBarrierAck))
	}
	for i := len(children) - 1; i >= 0; i-- {
		m.sendFrame(children[i], tagBarrierAck, nil)
	}
}

// bcastTree distributes data down the binomial tree rooted at root
// with the given tag and returns this rank's copy. Non-root ranks
// copy the payload out of the pooled receive buffer (the result is
// retained by callers and shared structurally, so it must not alias
// the arena) and recycle it before relaying.
func (m *Machine) bcastTree(root int, data []byte, tag int) []byte {
	vrank := (m.rank - root + m.p) % m.p
	children, parent := btreeUp(vrank, m.p)
	if parent >= 0 {
		payload := m.recvFrame((parent+root)%m.p, tag)
		data = append(make([]byte, 0, len(payload)), payload...)
		bufpool.Put(payload)
	}
	for i := len(children) - 1; i >= 0; i-- { // descending subtree size
		m.sendFrame((children[i]+root)%m.p, tag, data)
	}
	return data
}

// AllGather implements cluster.Transport: a binomial-tree gather to
// rank 0 (each node forwards its subtree's parts as one
// length-prefixed vector), then a tree broadcast of the full
// concatenation, O(log P) rounds each way. The returned slices share
// the broadcast vector structurally; no pooled buffer escapes.
func (m *Machine) AllGather(data []byte) [][]byte {
	if m.p == 1 {
		return [][]byte{data}
	}
	parts := make([][]byte, m.p) // indexed by rank; this node fills [rank, rank+span)
	parts[m.rank] = data
	children, parent := btreeUp(m.rank, m.p)
	var pooled [][]byte // children's vectors: recycled after re-encoding
	for _, c := range children {
		payload := m.recvFrame(c, tagGather)
		copy(parts[c:], decodeVec(payload, btreeSpan(c, m.p)))
		pooled = append(pooled, payload)
	}
	// This subtree's parts as one vector — at the root, everyone's.
	vec := encodeVec(parts[m.rank : m.rank+btreeSpan(m.rank, m.p)])
	cluster.RecycleRecv(pooled)
	if parent >= 0 {
		m.sendFrame(parent, tagGather, vec)
		vec = nil
	}
	return decodeVec(m.bcastTree(0, vec, tagGatherVec), m.p)
}

// Bcast implements cluster.Transport: binomial tree from root,
// O(log P) rounds.
func (m *Machine) Bcast(root int, data []byte) []byte {
	if m.p == 1 {
		return data
	}
	return m.bcastTree(root, data, tagBcast)
}

// AllReduceInt64 implements cluster.Transport: a binomial-tree reduce
// to rank 0 (partial results combine on the way up), then a tree
// broadcast of the result, O(log P) rounds each way.
func (m *Machine) AllReduceInt64(v int64, op string) int64 {
	if m.p == 1 {
		return v
	}
	reduce := cluster.ReduceOp(op)
	children, parent := btreeUp(m.rank, m.p)
	acc := v
	for _, c := range children {
		x := m.recvFrame(c, tagReduce)
		acc = reduce(acc, int64(binary.LittleEndian.Uint64(x)))
		bufpool.Put(x)
	}
	var buf [8]byte
	if parent >= 0 {
		binary.LittleEndian.PutUint64(buf[:], uint64(acc))
		m.sendFrame(parent, tagReduce, buf[:])
		res := m.recvFrame(parent, tagReduceRes)
		acc = int64(binary.LittleEndian.Uint64(res))
		bufpool.Put(res)
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(acc))
	for i := len(children) - 1; i >= 0; i-- {
		m.sendFrame(children[i], tagReduceRes, buf[:])
	}
	return acc
}

func init() {
	// Common metadata types so ExchangeAny works out of the box.
	gob.Register([]byte(nil))
	gob.Register([]int64(nil))
	gob.Register([]uint64(nil))
	gob.Register(int64(0))
	gob.Register(uint64(0))
	gob.Register("")
}

// ExchangeAny implements cluster.Transport: items cross address
// spaces gob-encoded, on the same 1-factorization schedule as
// AllToAllv. nominalBytes is a cost-model parameter without meaning on
// this backend.
func (m *Machine) ExchangeAny(items []any, nominalBytes int) []any {
	if len(items) != m.p {
		m.failNow(fmt.Errorf("tcp: ExchangeAny needs %d items, got %d", m.p, len(items)))
	}
	out := make([]any, m.p)
	out[m.rank] = items[m.rank]
	for r := 0; r < oneFactorRounds(m.p); r++ {
		q := oneFactorPartner(m.rank, r, m.p)
		if q < 0 {
			continue
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&items[q]); err != nil {
			m.failNow(fmt.Errorf("tcp: ExchangeAny encode for %d: %w", q, err))
		}
		m.sendFrame(q, tagXAny, buf.Bytes())
		payload := m.recvFrame(q, tagXAny)
		var v any
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&v); err != nil {
			m.failNow(fmt.Errorf("tcp: ExchangeAny decode from %d: %w", q, err))
		}
		bufpool.Put(payload)
		out[q] = v
	}
	return out
}

// encodeVec frames P byte slices as [P × uint64 length][concat].
func encodeVec(parts [][]byte) []byte {
	total := 8 * len(parts)
	for _, p := range parts {
		total += len(p)
	}
	vec := make([]byte, 0, total)
	var tmp [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(tmp[:], uint64(len(p)))
		vec = append(vec, tmp[:]...)
	}
	for _, p := range parts {
		vec = append(vec, p...)
	}
	return vec
}

// decodeVec slices an encodeVec payload back into P parts (sharing
// the backing array — AllGather results are structurally shared).
func decodeVec(vec []byte, p int) [][]byte {
	parts := make([][]byte, p)
	off := 8 * p
	for i := 0; i < p; i++ {
		n := int(binary.LittleEndian.Uint64(vec[8*i:]))
		parts[i] = vec[off : off+n : off+n]
		off += n
	}
	return parts
}
