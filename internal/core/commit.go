package core

import (
	"math/bits"
	"slices"
)

// Commit records that the client of query q has provably received the
// update stream so far: the current answer becomes the committed answer.
// Stationary queries send explicit commit messages (paper §3.3); moving
// queries commit implicitly whenever the server hears from them, which
// applyQueryUpdate performs automatically. Commit reports whether q is
// registered.
func (e *Engine) Commit(q QueryID) bool {
	qs, ok := e.qrys[q]
	if !ok {
		return false
	}
	e.commit(qs)
	return true
}

func (e *Engine) commit(qs *queryState) {
	// No membership change since the last snapshot: committed already
	// equals the answer, so the rebuild below would reproduce it. (An
	// object removal that could invalidate a committed ID always went
	// through setMember first, clearing the flag.)
	if qs.snapClean {
		return
	}
	// Reuse the previous committed snapshot's storage: moving queries
	// auto-commit on every report, so allocating a fresh snapshot per
	// report dominated the query-move path's allocation profile. The
	// answer holds handles; the snapshot stores ObjectIDs, because the
	// committed set can outlive its members (see queryState.committed).
	dst := qs.committed[:0]
	if qs.answer.bits != nil {
		for wi, w := range qs.answer.bits {
			base := int32(wi << 6)
			for w != 0 {
				h := base + int32(bits.TrailingZeros64(w))
				w &= w - 1
				dst = append(dst, e.idByH[h])
			}
		}
	} else {
		for _, h := range qs.answer.small {
			dst = append(dst, e.idByH[h])
		}
	}
	qs.committed = dst
	qs.snapClean = true
}

// Recover computes the updates an out-of-sync client needs after a
// disconnection: the difference between the last committed answer and the
// current answer, as positive and negative updates. The result is far
// smaller than resending the whole answer when the disconnection was
// short (the paper's motivating case). The recovered state is then
// committed, since the client receives it as part of reconnecting.
//
// A query that has never committed recovers from the empty answer, i.e.
// the full current answer is returned as positive updates — equivalent to
// the naive wakeup protocol.
//
// The second result reports whether q is registered.
func (e *Engine) Recover(q QueryID) ([]Update, bool) {
	qs, ok := e.qrys[q]
	if !ok {
		return nil, false
	}
	// The snapshot is unordered (commit is the hot path and appends
	// blindly); sort it here for the merge. Recover is rare, and the
	// snapshot is rewritten below anyway.
	slices.Sort(qs.committed)
	ans, _ := e.Answer(q)
	out := AppendDiff(nil, q, qs.committed, ans)
	e.commit(qs)
	return out, true
}

// AppendDiff appends to out the updates that turn answer from into
// answer to, both ascending and duplicate-free (see SortIDs): negatives
// first (a client prunes before it grows), then positives, each in
// ascending ObjectID order. It is the recovery diff of every processor.
func AppendDiff(out []Update, q QueryID, from, to []ObjectID) []Update {
	j := 0
	for _, o := range from {
		for j < len(to) && to[j] < o {
			j++
		}
		if j == len(to) || to[j] != o {
			out = append(out, Update{Query: q, Object: o, Positive: false})
		}
	}
	i := 0
	for _, o := range to {
		for i < len(from) && from[i] < o {
			i++
		}
		if i == len(from) || from[i] != o {
			out = append(out, Update{Query: q, Object: o, Positive: true})
		}
	}
	return out
}

// SortIDs sorts ids in place and drops repeats, returning the
// ascending, duplicate-free set AppendDiff expects. SeedCommitted input
// is unconstrained, so every processor normalizes a seed with it: a
// duplicate would double-emit on Recover and cancel out of the XOR
// checksum.
func SortIDs(ids []ObjectID) []ObjectID {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// CommittedAnswer returns the last committed answer of q in ascending
// ObjectID order. The second result is false if q is unknown; a
// registered query that has never committed returns an empty slice.
func (e *Engine) CommittedAnswer(q QueryID) ([]ObjectID, bool) {
	qs, ok := e.qrys[q]
	if !ok {
		return nil, false
	}
	out := append(make([]ObjectID, 0, len(qs.committed)), qs.committed...)
	slices.Sort(out)
	return out, true
}
