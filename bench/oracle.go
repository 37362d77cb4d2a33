package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"

	"applab/internal/endpoint"
	"applab/internal/rdf"
	"applab/internal/sparql"
)

// checker judges every answer while the load runs, without evaluating
// anything: a pooled query must answer with the same bytes every time,
// and a share of all answers is kept for the oracle to re-derive once
// the timed phases are over (an oracle evaluation inside a phase would
// be measured as server work, the two share the process).
type checker struct {
	mu      sync.Mutex
	first   map[int]poolAnswer
	kept    []keptAnswer
	every   int // keep the answer of every every-th stream index ...
	pooled  int // ... and the first answer of pool keys below this
	maxKept int
}

// poolAnswer is a pool entry's first answer and whether the oracle
// already has it.
type poolAnswer struct {
	hash uint64
	kept bool
}

type keptAnswer struct {
	query string
	body  []byte
}

// Sampling: one in fifty answers of a stream goes to the oracle, as do
// the hottest pool entries, which carry most of a Zipf stream's
// requests. The cap bounds the oracle's time after the phases.
const (
	oracleEvery   = 50
	oracleHottest = 24
	oracleMax     = 96
)

func newChecker() *checker {
	return &checker{first: map[int]poolAnswer{}, every: oracleEvery, pooled: oracleHottest, maxKept: oracleMax}
}

func (c *checker) observe(i int, req request, body []byte) error {
	h := bodyHash(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	keep := i%c.every == 0 && len(c.kept) < c.maxKept
	if req.key >= 0 {
		prev, seen := c.first[req.key]
		if seen && prev.hash != h {
			return fmt.Errorf("pool entry %d answered differently than before", req.key)
		}
		hot := !seen && req.key < c.pooled && len(c.kept) < c.maxKept
		keep = (keep || hot) && !prev.kept
		c.first[req.key] = poolAnswer{hash: h, kept: prev.kept || keep}
	}
	if keep {
		c.kept = append(c.kept, keptAnswer{query: req.query, body: bytes.Clone(body)})
	}
	return nil
}

// verify evaluates every kept query with the seed evaluator over an
// in-memory graph of the same triples and compares canonical answers.
// It returns how many were checked and the mismatches.
func (c *checker) verify(oracle sparql.Source) (checked int, mismatches []error) {
	c.mu.Lock()
	kept := c.kept
	c.kept = nil
	c.mu.Unlock()
	for _, k := range kept {
		checked++
		want, err := sparql.EvalSeed(oracle, k.query)
		if err != nil {
			mismatches = append(mismatches, fmt.Errorf("oracle: %v: %s", err, k.query))
			continue
		}
		wantBody, err := json.Marshal(endpoint.ResultsJSON(want))
		if err != nil {
			mismatches = append(mismatches, err)
			continue
		}
		wh, err1 := canonicalHash(wantBody)
		gh, err2 := canonicalHash(k.body)
		if err1 != nil || err2 != nil || wh != gh {
			mismatches = append(mismatches, fmt.Errorf("answer differs from the oracle's (%v %v): %s", err1, err2, k.query))
		}
	}
	return checked, mismatches
}

// canonicalHash hashes a SPARQL-results-JSON document independent of
// row order and of the last digits of computed doubles (SUM adds in
// scan order, and the oracle scans a different structure).
func canonicalHash(body []byte) (uint64, error) {
	var doc struct {
		Head    struct{ Vars []string }
		Results struct {
			Bindings []map[string]struct {
				Type, Value, Datatype string
				Lang                  string `json:"xml:lang"`
			}
		}
		Boolean bool
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, err
	}
	rows := make([]string, len(doc.Results.Bindings))
	for i, b := range doc.Results.Bindings {
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var sb strings.Builder
		for _, v := range vars {
			cell := b[v]
			val := cell.Value
			if cell.Datatype == rdf.XSDDouble || cell.Datatype == rdf.XSDFloat {
				if f, err := strconv.ParseFloat(val, 64); err == nil {
					val = strconv.FormatFloat(f, 'g', 9, 64)
				}
			}
			fmt.Fprintf(&sb, "%s=%s|%q|%s|%s;", v, cell.Type, val, cell.Datatype, cell.Lang)
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	h := fnv.New64a()
	fmt.Fprintf(h, "%q %v\n", doc.Head.Vars, doc.Boolean)
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return h.Sum64(), nil
}
