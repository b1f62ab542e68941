package experiment

import (
	"encoding/json"
	"fmt"
	"strings"

	"gossipmia/internal/store"
)

// Store-backed arm caching. Per-arm results land in one embedded
// store (internal/store) — a resume streams a single log + segment set
// instead of opening a file per arm. Each record is the arm's
// canonical JSON with a self-checksum (Sum), and decodeArmCache trusts
// it only if it decodes, reproduces Sum, and matches key and label.
//
// Key space:
//
//	"a!" + <64-hex arm content hash>          → armCacheFile JSON
//	"i!" + spec + "\x00" + label + "\x00" + hash[:16]
//	                                          → StoreArmSummary JSON
//
// The "a!" row is the resume cache, point-looked-up (bloom-served) or
// range-prescanned. The "i!" row is the listing index: its key embeds
// the figure name and the arm label — which carries the sweep-axis
// value, e.g. "purchase100 beta=0.25" — so `dlsim list -store` serves
// a figure's arms with one bounded range scan in label order, no
// record-body reads.
const (
	storeArmPrefix   = "a!"
	storeIndexPrefix = "i!"
)

// storeArmKey returns the record key of an arm's cached result.
func storeArmKey(key string) string { return storeArmPrefix + key }

// storeIndexKey returns the listing-index key of an arm.
func storeIndexKey(specName, label, key string) string {
	short := key
	if len(short) > 16 {
		short = short[:16]
	}
	return storeIndexPrefix + specName + "\x00" + label + "\x00" + short
}

// StoreArmSummary is the listing-index row of one cached arm: the
// headline metrics of results.csv, keyed for range scans by figure.
type StoreArmSummary struct {
	Spec     string  `json:"spec"`
	Label    string  `json:"label"`
	Key      string  `json:"key"`
	MaxAcc   float64 `json:"maxAcc"`
	MIAAtMax float64 `json:"miaAtMax"`
	Messages int     `json:"messages"`
	Bytes    int     `json:"bytes"`
	Epsilon  float64 `json:"epsilon,omitempty"`
}

// storeArmSummary builds the index row for a finished arm.
func storeArmSummary(specName, key string, arm Arm) StoreArmSummary {
	at := arm.AtMaxTestAcc()
	return StoreArmSummary{
		Spec:     specName,
		Label:    arm.Label,
		Key:      key,
		MaxAcc:   at.TestAcc,
		MIAAtMax: at.MIAAcc,
		Messages: arm.MessagesSent,
		Bytes:    arm.BytesSent,
		Epsilon:  arm.RealizedEpsilon,
	}
}

// putStoreArm commits one arm to the store: the full cache record plus
// its listing-index row.
func putStoreArm(st *store.Store, specName, key string, arm Arm) error {
	raw, err := encodeArmCache(key, arm)
	if err != nil {
		return err
	}
	if err := st.Put(storeArmKey(key), raw); err != nil {
		return err
	}
	idx, err := json.Marshal(storeArmSummary(specName, key, arm))
	if err != nil {
		return fmt.Errorf("experiment: index row: %w", err)
	}
	return st.Put(storeIndexKey(specName, arm.Label, key), idx)
}

// ensureStoreIndex repairs a missing listing-index row for a cached
// arm — the case where a crash tore the index Put but the record Put
// before it was durable. The existence probe is a bloom-served point
// lookup, so resuming 10^5 intact arms costs microseconds each and
// writes nothing.
func ensureStoreIndex(st *store.Store, specName, key string, arm Arm) error {
	ik := storeIndexKey(specName, arm.Label, key)
	ok, err := st.Has(ik)
	if err != nil || ok {
		return err
	}
	idx, err := json.Marshal(storeArmSummary(specName, key, arm))
	if err != nil {
		return fmt.Errorf("experiment: index row: %w", err)
	}
	return st.Put(ik, idx)
}

// encodeArmCache renders the cache record of an executed arm: its
// canonical JSON with the integrity Sum filled in, indented.
func encodeArmCache(key string, arm Arm) ([]byte, error) {
	cache := armCacheFile{
		Label:           arm.Label,
		Key:             key,
		Records:         arm.Series.Records,
		MessagesSent:    arm.MessagesSent,
		BytesSent:       arm.BytesSent,
		RealizedEpsilon: arm.RealizedEpsilon,
		NoiseMultiplier: arm.NoiseMultiplier,
	}
	sum, err := cache.checksum()
	if err != nil {
		return nil, err
	}
	cache.Sum = sum
	return json.MarshalIndent(cache, "", " ")
}

// decodeArmCache validates and decodes one cached arm record from its
// raw bytes — the only path by which a cached result is trusted: the
// JSON must decode, its integrity checksum must reproduce, and the key
// and label must match, so a truncated or tampered record, or one
// written under a different spec, scale, or seed, is ignored (and the
// arm recomputed) rather than resumed from.
func decodeArmCache(raw []byte, key, label string) (Arm, bool) {
	if len(raw) == 0 {
		return Arm{}, false
	}
	var cache armCacheFile
	if err := json.Unmarshal(raw, &cache); err != nil {
		return Arm{}, false
	}
	if sum, err := cache.checksum(); err != nil || cache.Sum != sum {
		return Arm{}, false
	}
	if cache.Key != key || cache.Label != label {
		return Arm{}, false
	}
	return cache.arm(), true
}

// prescanStoreArms serves the resume lookup in one pass: a single
// ordered scan over the record range collects the raw bytes of every
// wanted key. No per-arm file opens, no per-arm point lookups — the
// scan touches the log and segment set once, sequentially, and skips
// everything outside the "a!" range via fence keys.
func prescanStoreArms(st *store.Store, keys []string) ([][]byte, error) {
	want := make(map[string]int, len(keys))
	for i, k := range keys {
		want[storeArmKey(k)] = i
	}
	raw := make([][]byte, len(keys))
	err := st.Scan(storeArmPrefix, store.PrefixEnd(storeArmPrefix), func(k string, v []byte) error {
		if i, ok := want[k]; ok {
			raw[i] = append([]byte(nil), v...)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: store prescan: %w", err)
	}
	return raw, nil
}

// ListStoreArms pages through a store's listing index in (figure,
// label) order without reading record bodies. figure == "" lists every
// figure; limit <= 0 means no limit. It returns the page, the total
// number of matching rows, and opens the store read-only — safe
// against a store another process is writing.
func ListStoreArms(dir, figure string, limit, offset int) ([]StoreArmSummary, int, error) {
	st, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()
	start := storeIndexPrefix
	if figure != "" {
		start = storeIndexPrefix + figure + "\x00"
	}
	end := store.PrefixEnd(start)
	var page []StoreArmSummary
	total := 0
	err = st.Scan(start, end, func(k string, v []byte) error {
		total++
		if total <= offset || (limit > 0 && len(page) >= limit) {
			return nil
		}
		var s StoreArmSummary
		if err := json.Unmarshal(v, &s); err != nil {
			return fmt.Errorf("experiment: index row %q: %w", k, err)
		}
		page = append(page, s)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return page, total, nil
}

// FormatStoreArms renders a listing page as the aligned text table
// `dlsim list -store` prints.
func FormatStoreArms(page []StoreArmSummary, total, offset int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d cached arms", total)
	if len(page) < total {
		fmt.Fprintf(&b, " (showing %d-%d)", offset+1, offset+len(page))
	}
	b.WriteString("\n")
	for _, s := range page {
		fmt.Fprintf(&b, "%s\t%s\tacc=%.4f mia=%.4f msgs=%d key=%s\n",
			s.Spec, s.Label, s.MaxAcc, s.MIAAtMax, s.Messages, s.Key[:min(16, len(s.Key))])
	}
	return b.String()
}
