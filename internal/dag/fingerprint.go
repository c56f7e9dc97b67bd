package dag

// Hash is an incremental FNV-1a 64-bit digest with a fixed, length-prefixed
// encoding of the primitive scheduling types. It is the shared fingerprint
// builder of the repository: DAG.Fingerprint uses it for workflows,
// power.Profile.Digest for green power profiles, and the solver combines
// both into its solve-response cache key — so every cache layer hashes the
// same input the same way.
//
// The state is a bare uint64 and the bytes are mixed inline, bit for bit
// what hash/fnv computes: through hash.Hash64 the 8-byte buffer of every
// U64 escaped to the heap, which made keying the bulk of a cache hit's
// allocations.
type Hash struct {
	h uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewHash returns an empty FNV-1a 64-bit digest.
func NewHash() *Hash { return &Hash{h: fnvOffset64} }

// U64 feeds one 64-bit value (little-endian) into the digest.
func (h *Hash) U64(x uint64) {
	s := h.h
	for i := 0; i < 64; i += 8 {
		s = (s ^ (x >> i & 0xff)) * fnvPrime64
	}
	h.h = s
}

// I64 feeds one signed 64-bit value into the digest.
func (h *Hash) I64(x int64) { h.U64(uint64(x)) }

// Str feeds a NUL-terminated string into the digest (the terminator keeps
// adjacent strings from sliding into each other).
func (h *Hash) Str(s string) {
	sum := h.h
	for i := 0; i < len(s); i++ {
		sum = (sum ^ uint64(s[i])) * fnvPrime64
	}
	h.h = sum * fnvPrime64 // the terminator: XOR with 0 leaves the state as it is
}

// Sum64 returns the digest of everything fed so far.
func (h *Hash) Sum64() uint64 { return h.h }

// Equal reports whether two DAGs are structurally identical: same task
// weights and names, same edges in the same insertion order with the same
// communication weights. It is the collision guard behind fingerprint-keyed
// caches — O(N+E), far cheaper than re-planning.
func (d *DAG) Equal(o *DAG) bool {
	if d == o {
		return true
	}
	if o == nil || len(d.Tasks) != len(o.Tasks) || len(d.Edges) != len(o.Edges) {
		return false
	}
	for i := range d.Tasks {
		if d.Tasks[i].Weight != o.Tasks[i].Weight || d.Tasks[i].Name != o.Tasks[i].Name {
			return false
		}
	}
	for i := range d.Edges {
		if d.Edges[i] != o.Edges[i] {
			return false
		}
	}
	return true
}

// Fingerprint returns a 64-bit FNV-1a digest of the graph's structure and
// weights: task count, per-task work weights and names, and every edge
// with its communication weight. Two DAGs with the same fingerprint are
// (up to hash collisions) the same scheduling input, so the digest serves
// as a memoization key for mapping/planning results. Edge insertion order
// is part of the digest; generators are deterministic, so equal inputs
// hash equally.
func (d *DAG) Fingerprint() uint64 {
	h := NewHash()
	h.U64(uint64(len(d.Tasks)))
	for _, t := range d.Tasks {
		h.I64(t.Weight)
		h.Str(t.Name)
	}
	h.U64(uint64(len(d.Edges)))
	for _, e := range d.Edges {
		h.U64(uint64(e.From))
		h.U64(uint64(e.To))
		h.I64(e.Weight)
	}
	return h.Sum64()
}
