package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// SimVersion stamps the simulator's modeled behaviour. It participates in
// every cell fingerprint (internal/harness), so persisted cell results are
// invalidated wholesale when the model changes. Bump it for any change that
// can alter a simulated result — pipeline timing, scheme semantics, memory
// hierarchy, workload generation — and leave it alone for perf-only
// refactors that keep the commit-stream and figure goldens byte-identical.
const SimVersion = "shadowbinding-sim/v3"

// Fingerprint returns a stable content hash of the configuration: every
// field that parameterizes the core, its memory-system selector included,
// in canonical form. Two configurations with equal fingerprints simulate
// identically (given the same SimVersion); any field change — width,
// memory ports, ROB size, checkpoints, wake-up or taint options, memory
// system — yields a new fingerprint. The fixed latencies, predictor sizes
// and cache geometries are constants of the model, covered by SimVersion.
// The harness composes it into cell keys for the content-addressed result
// cache.
func (c Config) Fingerprint() string {
	// Config is a flat set of exported scalar fields; encoding/json marshals
	// them in declaration order, which makes the encoding canonical for a
	// given SimVersion. Adding, removing or renaming a field changes the
	// encoding and so re-keys every cell by itself: persisted results
	// become misses, never wrong hits, and SimVersion need not move.
	data, err := json.Marshal(c)
	if err != nil {
		// Config contains no channels, funcs, or cycles; Marshal cannot
		// fail on it short of memory corruption.
		panic(fmt.Sprintf("core: fingerprint %s: %v", c.Name, err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}
