package ndtaint

import "sort"

// The shapes below mirror internal/core and internal/cache: map-keyed
// residency sets whose keys feed eviction and selection order.

type FileID uint32

func evict([]FileID)       {}
func sortIDs(ids []FileID) { sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] }) }
func use(interface{})      {}

// evictionOrder returns map keys in randomized iteration order — the
// bug class: callers treat the result as an eviction sequence.
func evictionOrder(resident map[FileID]int64) []FileID {
	var out []FileID
	for f := range resident { // want "without a deterministic sort"
		out = append(out, f)
	}
	return out
}

// sortedOrder extracts keys and sorts before returning: fine.
func sortedOrder(resident map[FileID]int64) []FileID {
	out := make([]FileID, 0, len(resident))
	for f := range resident {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// helperSorted sorts through a helper whose name says so: fine.
func helperSorted(resident map[FileID]int64) []FileID {
	var out []FileID
	for f := range resident {
		out = append(out, f)
	}
	sortIDs(out)
	return out
}

// sumSizes only reduces over the accumulated slice; order-independent.
func sumSizes(resident map[FileID]int64) int64 {
	var sizes []int64
	for _, s := range resident {
		sizes = append(sizes, s)
	}
	var total int64
	for _, s := range sizes {
		total += s
	}
	return total
}

// passedUnsorted hands randomized order to the eviction path.
func passedUnsorted(resident map[FileID]int64) {
	var victims []FileID
	for f := range resident { // want "without a deterministic sort"
		victims = append(victims, f)
	}
	evict(victims)
}

// indexedUnsorted picks "the first" of a randomized sequence.
func indexedUnsorted(resident map[FileID]int64) FileID {
	var out []FileID
	for f := range resident { // want "without a deterministic sort"
		out = append(out, f)
	}
	if len(out) == 0 { // len is not an ordered use
		return 0
	}
	return out[0]
}

// sortedLate sorts only after the first ordered use: still flagged.
func sortedLate(resident map[FileID]int64) []FileID {
	var out []FileID
	for f := range resident { // want "without a deterministic sort"
		out = append(out, f)
	}
	use(out[0])
	sortIDs(out)
	return out
}

// nestedReduce ranges over each value's slice to the end: exhaustive, no
// diagnostic. The nested loop is where the early-exit walk must not recurse
// on itself.
func nestedReduce(m map[int][]int) int {
	total := 0
	for _, vs := range m {
		for _, v := range vs {
			total += v
		}
	}
	return total
}

// nestedReturn returns from inside the nested loop, so the outer map range
// stops at whichever key iteration yields first.
func nestedReturn(m map[int][]int) int {
	for k, vs := range m {
		for _, v := range vs {
			if v < 0 {
				return k // want "randomized map iteration order" "return value"
			}
		}
	}
	return -1
}
