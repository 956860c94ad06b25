package spell

import "slices"

// topK returns the k first entries of xs under before — a strict total
// order, so the answer is unique — in that order, reusing xs's storage.
// It equals sorting xs by before and truncating to k, but ranking a
// compendium for the top 50 genes only pays O(n log k): a bounded heap
// keeps the k best seen so far with the worst at its root, and only those
// k are sorted at the end. k <= 0 or k >= len(xs) sorts every entry.
func topK[T any](xs []T, k int, before func(a, b T) bool) []T {
	cmp := func(a, b T) int {
		switch {
		case before(a, b):
			return -1
		case before(b, a):
			return 1
		}
		return 0
	}
	if k <= 0 || k >= len(xs) {
		slices.SortFunc(xs, cmp)
		return xs
	}
	h := xs[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(h, i, before)
	}
	for _, x := range xs[k:] {
		if before(x, h[0]) {
			h[0] = x
			siftDown(h, 0, before)
		}
	}
	slices.SortFunc(h, cmp)
	return h
}

// siftDown restores the heap property below i in h, a heap whose root is
// the entry every other entry comes before.
func siftDown[T any](h []T, i int, before func(a, b T) bool) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && before(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && before(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
