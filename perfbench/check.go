package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	reorder "repro"
	"repro/internal/executor"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/value"
)

// digestRows hashes a multiset of rows, each rendered as a compact
// JSON array: the same rows in any order give the same digest.
func digestRows(rows []string) uint64 {
	sort.Strings(rows)
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// digestBody digests the rows of a POST /query response body.
func digestBody(body []byte) (uint64, error) {
	var resp struct {
		Rows []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decode response: %w", err)
	}
	rows := make([]string, len(resp.Rows))
	for i, r := range resp.Rows {
		rows[i] = string(r)
	}
	return digestRows(rows), nil
}

// digestRelation digests rel rendered the way the service encodes
// response rows.
func digestRelation(rel *relation.Relation) (uint64, error) {
	rows := make([]string, 0, rel.Len())
	for _, t := range rel.Tuples() {
		row := make([]any, len(t))
		for j, v := range t {
			row[j] = jsonValue(v)
		}
		b, err := json.Marshal(row)
		if err != nil {
			return 0, fmt.Errorf("encode row: %w", err)
		}
		rows = append(rows, string(b))
	}
	return digestRows(rows), nil
}

// jsonValue converts a value to the JSON form the service's responses
// use.
func jsonValue(v value.Value) any {
	switch v.Kind() {
	case value.KindInt:
		return v.Int()
	case value.KindFloat:
		return v.Float()
	case value.KindString:
		return v.Str()
	case value.KindBool:
		return v.Bool()
	default:
		return nil
	}
}

// referenceDigests evaluates every pool entry with the workload's
// reference evaluator on the as-written lowered plan (literals inline,
// no optimization, no plan cache), indexed like the pool.
func referenceDigests(w *workload, db reorder.Database, pool []string) ([]uint64, error) {
	out := make([]uint64, len(pool))
	for id, q := range pool {
		node, err := sql.ParseAndLower(q, db)
		if err != nil {
			return nil, fmt.Errorf("reference lowering of %q: %w", q, err)
		}
		var rel *relation.Relation
		if w.reference == refEval {
			rel, err = node.Eval(db)
		} else {
			rel, err = executor.Run(node, db)
		}
		if err != nil {
			return nil, fmt.Errorf("reference evaluation of %q: %w", q, err)
		}
		if out[id], err = digestRelation(rel); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// wrongResults returns, in order, the positions of the responses
// whose rows differ from the reference.
func wrongResults(seq sequence, sv *served, ref []uint64) []int {
	var wrong []int
	for i, r := range sv.rep {
		if r >= 0 && sv.digests[int(r)] != ref[seq.timed[i]] {
			wrong = append(wrong, i)
		}
	}
	return wrong
}
