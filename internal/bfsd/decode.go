// Package bfsd is the traversal service layer: a work-conserving batcher
// that folds concurrent BFS queries into batched multi-source sweeps
// (core.RunBatch), and an HTTP front end serving parents / reachability /
// distance queries against a resident partitioned graph. The daemon pays
// generation + partitioning once; a query at an idle engine costs one sweep,
// and under load every collective is amortized across whatever query mix
// arrived during the previous sweep.
package bfsd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Query operations.
const (
	// OpParent returns the BFS parent of Target in the tree rooted at Root.
	OpParent = "parent"
	// OpParents returns the full parent array.
	OpParents = "parents"
	// OpReach reports whether Target is reachable from Root.
	OpReach = "reach"
	// OpDistance returns Target's BFS level (hop distance) from Root, -1
	// when unreachable.
	OpDistance = "distance"
)

// maxRequestBytes bounds a query document; a valid request is tiny, so the
// limit mostly guards the decoder against hostile bodies.
const maxRequestBytes = 4096

// QueryRequest is one client query. Root must always be present; Target is
// required by every op except "parents".
type QueryRequest struct {
	Root   int64  `json:"root"`
	Op     string `json:"op"`
	Target int64  `json:"target"`

	// rawRoot/rawTarget track field presence so 0 and "absent" differ.
	hasRoot   bool
	hasTarget bool
}

// ErrBadRequest wraps every decode rejection so the server can map the whole
// class to one status code.
var ErrBadRequest = errors.New("bfsd: bad request")

func badf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadRequest}, args...)...)
}

// DecodeQueryRequest strictly decodes one query document: unknown fields,
// trailing data, oversized bodies, wrong types, a missing root, an unknown
// op and a missing target (for ops that need one) are all rejected. The op
// defaults to "parent" when empty.
func DecodeQueryRequest(r io.Reader) (QueryRequest, error) {
	var q QueryRequest
	lr := &io.LimitedReader{R: r, N: maxRequestBytes + 1}
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()

	// Decode into a shadow struct of pointers to detect absent fields.
	var raw struct {
		Root   *int64  `json:"root"`
		Op     *string `json:"op"`
		Target *int64  `json:"target"`
	}
	if err := dec.Decode(&raw); err != nil {
		if lr.N <= 0 {
			return q, badf("request exceeds %d bytes", maxRequestBytes)
		}
		return q, badf("invalid JSON: %v", err)
	}
	if dec.More() {
		return q, badf("trailing data after request object")
	}
	if lr.N <= 0 {
		return q, badf("request exceeds %d bytes", maxRequestBytes)
	}
	if raw.Root == nil {
		return q, badf("missing root")
	}
	if *raw.Root < 0 {
		return q, badf("negative root %d", *raw.Root)
	}
	q.Root, q.hasRoot = *raw.Root, true
	q.Op = OpParent
	if raw.Op != nil {
		q.Op = strings.ToLower(strings.TrimSpace(*raw.Op))
	}
	switch q.Op {
	case OpParent, OpParents, OpReach, OpDistance:
	default:
		return q, badf("unknown op %q", q.Op)
	}
	if raw.Target != nil {
		if *raw.Target < 0 {
			return q, badf("negative target %d", *raw.Target)
		}
		q.Target, q.hasTarget = *raw.Target, true
	}
	if q.Op != OpParents && !q.hasTarget {
		return q, badf("op %q needs a target", q.Op)
	}
	return q, nil
}
