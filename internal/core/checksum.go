package core

// ChecksumIDs returns an order-independent checksum of an answer set,
// used by the out-of-sync recovery handshake: a reconnecting client sends
// the checksum of its (rolled-back) answer; if it matches the server's
// committed answer the incremental diff suffices, otherwise the server
// falls back to resending the complete answer.
//
// Each ID is mixed through SplitMix64 and the results are XORed, so the
// checksum is independent of iteration order.
func ChecksumIDs(ids []ObjectID) uint64 {
	var sum uint64
	for _, id := range ids {
		sum ^= splitmix64(uint64(id))
	}
	return sum
}

// checksumAnswer folds a handle-keyed answer set, translating handles
// to ObjectIDs so the checksum is comparable with a client's.
func (e *Engine) checksumAnswer(s *answerSet) uint64 {
	var sum uint64
	members := s.AppendTo(e.hBuf[:0])
	e.hBuf = members
	for _, h := range members {
		sum ^= splitmix64(uint64(e.idByH[h]))
	}
	return sum
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-distributed 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// AnswerChecksum returns the checksum of q's current answer; ok is false
// when q is unknown.
func (e *Engine) AnswerChecksum(q QueryID) (uint64, bool) {
	qs, ok := e.qrys[q]
	if !ok {
		return 0, false
	}
	return e.checksumAnswer(&qs.answer), true
}
