package fpd

import (
	"sort"
	"strconv"
	"strings"

	"github.com/drs-repro/drs/internal/stats"
)

// Transaction is one tweet reduced to its distinct item (word) ids, sorted.
type Transaction []int

// normalize sorts and dedups a transaction in place, returning the result.
func normalize(items []int) Transaction {
	sort.Ints(items)
	out := items[:0]
	for i, v := range items {
		if i == 0 || v != items[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Itemset is a canonical (sorted, distinct) set of item ids.
type Itemset []int

// Key renders the canonical string form used for hashing and map keys.
func (s Itemset) Key() string {
	var b strings.Builder
	for i, v := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// IsSubset reports whether s ⊆ t (both canonical).
func (s Itemset) IsSubset(t Itemset) bool {
	if len(s) > len(t) {
		return false
	}
	i := 0
	for _, v := range t {
		if i == len(s) {
			return true
		}
		if s[i] == v {
			i++
		} else if s[i] < v {
			return false
		}
	}
	return i == len(s)
}

// Hash gives a stable 64-bit hash for fields grouping (FNV-1a over Key).
func (s Itemset) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range s {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	return h
}

// Subsets enumerates all non-empty subsets of txn with size at most maxLen,
// in canonical form — the pattern generator's candidate expansion. The
// count is capped by capping txn first (see CandidateConfig).
func Subsets(txn Transaction, maxLen int) []Itemset {
	if maxLen <= 0 || len(txn) == 0 {
		return nil
	}
	var out []Itemset
	var cur Itemset
	var rec func(start int)
	rec = func(start int) {
		if len(cur) > 0 {
			out = append(out, append(Itemset(nil), cur...))
		}
		if len(cur) == maxLen {
			return
		}
		for i := start; i < len(txn); i++ {
			cur = append(cur, txn[i])
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

// CandidateConfig bounds the pattern generator's expansion, because the
// subset count is exponential in transaction length (§V-A: "an exponential
// number of possible non-empty combinations").
type CandidateConfig struct {
	// MaxItems truncates transactions to their first MaxItems items.
	MaxItems int
	// MaxLen bounds candidate itemset size.
	MaxLen int
}

// Candidates expands one transaction into its candidate itemsets.
func (c CandidateConfig) Candidates(txn Transaction) []Itemset {
	if c.MaxItems > 0 && len(txn) > c.MaxItems {
		txn = txn[:c.MaxItems]
	}
	maxLen := c.MaxLen
	if maxLen <= 0 {
		maxLen = 3
	}
	return Subsets(txn, maxLen)
}

// MFPStore is the detector's task-local state: occurrence counts for the
// itemsets this task owns, plus the globally-known frequent set (learned
// via loop notifications) used to judge maximality.
type MFPStore struct {
	threshold int
	counts    map[string]int
	owned     map[string]Itemset
	// frequent is the global frequent-set index, keyed by Key; populated
	// by local transitions and by notifications from other tasks.
	frequent map[string]Itemset
	// mfp marks which locally-owned itemsets are currently maximal.
	mfp map[string]bool
}

// NewMFPStore builds a store with the given absolute support threshold.
func NewMFPStore(threshold int) *MFPStore {
	return &MFPStore{
		threshold: threshold,
		counts:    make(map[string]int),
		owned:     make(map[string]Itemset),
		frequent:  make(map[string]Itemset),
		mfp:       make(map[string]bool),
	}
}

// FreqChange describes an itemset crossing the support threshold.
type FreqChange struct {
	Set      Itemset
	Frequent bool
}

// MFPChange describes an itemset gaining or losing maximal status.
type MFPChange struct {
	Set     Itemset
	Maximal bool
	Count   int
}

// Update applies one candidate event (delta ±1) to a locally-owned itemset
// and returns the frequency transition, if any. The caller broadcasts the
// transition to all tasks (the loop edge) — including back to this one.
func (st *MFPStore) Update(set Itemset, delta int) (FreqChange, bool) {
	key := set.Key()
	if _, ok := st.owned[key]; !ok {
		st.owned[key] = set
	}
	before := st.counts[key] >= st.threshold
	st.counts[key] += delta
	if st.counts[key] <= 0 {
		delete(st.counts, key)
		delete(st.owned, key)
		delete(st.mfp, key)
	}
	after := st.counts[key] >= st.threshold
	if before == after {
		return FreqChange{}, false
	}
	return FreqChange{Set: set, Frequent: after}, true
}

// ApplyNotification ingests a frequency transition (possibly from another
// task) into the global frequent index and recomputes the maximality of
// the locally-owned itemsets it affects. It returns the local MFP changes
// that must be reported.
func (st *MFPStore) ApplyNotification(ch FreqChange) []MFPChange {
	key := ch.Set.Key()
	if ch.Frequent {
		st.frequent[key] = ch.Set
	} else {
		delete(st.frequent, key)
	}
	var out []MFPChange
	// The changed set itself may be locally owned.
	if _, ok := st.owned[key]; ok {
		out = st.refresh(key, out)
	}
	// Any locally-owned subset of the changed set can flip.
	for ownedKey, owned := range st.owned {
		if ownedKey == key {
			continue
		}
		if owned.IsSubset(ch.Set) {
			out = st.refresh(ownedKey, out)
		}
	}
	return out
}

// refresh recomputes one owned itemset's MFP flag, appending a change
// record if it flipped.
func (st *MFPStore) refresh(key string, out []MFPChange) []MFPChange {
	set := st.owned[key]
	now := st.isMaximal(set)
	if now != st.mfp[key] {
		if now {
			st.mfp[key] = true
		} else {
			delete(st.mfp, key)
		}
		out = append(out, MFPChange{Set: set, Maximal: now, Count: st.counts[key]})
	}
	return out
}

// isMaximal: frequent locally AND no strictly-larger frequent superset in
// the global index.
func (st *MFPStore) isMaximal(set Itemset) bool {
	if st.counts[set.Key()] < st.threshold {
		return false
	}
	for _, sup := range st.frequent {
		if len(sup) > len(set) && set.IsSubset(sup) {
			return false
		}
	}
	return true
}

// BruteForceMFP computes the maximal frequent itemsets of a window of
// transactions directly: count every candidate subset, keep those at or
// above the threshold, and discard any with a frequent strict superset.
// Exponential — reference implementation for tests.
//
//checkdoc:testonly reference: the distributed MFP protocol is tested against it
func BruteForceMFP(window []Transaction, cfg CandidateConfig, threshold int) map[string]int {
	counts := make(map[string]int)
	sets := make(map[string]Itemset)
	for _, txn := range window {
		for _, s := range cfg.Candidates(txn) {
			k := s.Key()
			counts[k]++
			sets[k] = s
		}
	}
	frequent := make(map[string]Itemset)
	for k, c := range counts {
		if c >= threshold {
			frequent[k] = sets[k]
		}
	}
	out := make(map[string]int)
	for k, s := range frequent {
		maximal := true
		for _, sup := range frequent {
			if len(sup) > len(s) && s.IsSubset(sup) {
				maximal = false
				break
			}
		}
		if maximal {
			out[k] = counts[k]
		}
	}
	return out
}

// TweetGen produces synthetic transactions with a Zipf vocabulary: a few
// very common words and a long tail, like real microblog text.
type TweetGen struct {
	rng   *stats.RNG
	zipf  *stats.Zipf
	words int
	// MinItems..MaxItems bounds the distinct items per transaction.
	minItems, maxItems int
}

// NewTweetGen builds a generator over a vocabulary of the given size.
func NewTweetGen(vocabulary int, seed uint64) *TweetGen {
	if vocabulary < 4 {
		vocabulary = 4
	}
	rng := stats.NewRNG(seed)
	return &TweetGen{
		rng:      rng,
		zipf:     stats.NewZipf(rng, 1.4, uint64(vocabulary)),
		words:    vocabulary,
		minItems: 2,
		maxItems: 8,
	}
}

// Next generates one transaction.
func (g *TweetGen) Next() Transaction {
	n := g.minItems + g.rng.IntN(g.maxItems-g.minItems+1)
	items := make([]int, 0, n)
	for len(items) < n {
		items = append(items, int(g.zipf.Next()))
	}
	return normalize(items)
}
