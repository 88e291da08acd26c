package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// reference.json maps "<workload>/<operation>" to the hex digest of the
// operation's final shared memory in a correct run. The runs of one
// assembly kernel under every fault seed share the fault-free digest.
//
//go:embed reference.json
var referenceJSON []byte

func loadReferences() (map[string]string, error) {
	refs := map[string]string{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// checkReferences marks every finished operation whose memory differs
// from its reference, or that has none, as failing its check. Operations
// without a memory digest (open-loop transactions) are checked elsewhere.
func checkReferences(workload string, ops []opResult, refs map[string]string) {
	for i := range ops {
		o := &ops[i]
		if !o.finished || o.digest == 0 {
			continue
		}
		want, ok := refs[o.refKey(workload)]
		got := fmt.Sprintf("%016x", o.digest)
		switch {
		case !ok:
			o.refErr = "no reference digest for " + o.refKey(workload)
		case got != want:
			o.refErr = fmt.Sprintf("memory digest %s, reference %s", got, want)
		}
		o.sloMet = o.sloMet && o.refErr == ""
	}
}

// regenerate adds the pass's missing reference digests to the reference
// file at path. It never changes an existing entry: a digest that differs
// from the stored one is an error, to be resolved by hand.
func regenerate(path, workload string, p *passResult) error {
	refs := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &refs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if err := mergeReferences(refs, workload, p.ops); err != nil {
		return err
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// mergeReferences adds the digests of ops that finished and passed the
// workload's own checks to refs, failing on any conflict with an existing
// entry.
func mergeReferences(refs map[string]string, workload string, ops []opResult) error {
	for i := range ops {
		o := &ops[i]
		if !o.finished || o.digest == 0 || o.err != "" || o.check != "" {
			continue
		}
		key, got := o.refKey(workload), fmt.Sprintf("%016x", o.digest)
		if want, ok := refs[key]; ok && want != got {
			return fmt.Errorf("reference %s: this run gives %s, the stored digest is %s; not overwriting", key, got, want)
		}
		refs[key] = got
	}
	return nil
}
