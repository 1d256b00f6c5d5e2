package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"iter"
	"slices"

	"repro/internal/core"
	"repro/internal/workloads"
)

// Cell fingerprinting. Every (config, scheme, benchmark, options) cell is
// content-addressed: its key is a stable hash of everything that can
// change the simulated result, plus a simulator version stamp
// (core.SimVersion by default). Equal keys mean equal results, so the
// engine executes each key at most once and the CellCache can persist
// results across processes; a model change bumps the stamp and orphans
// every stale entry instead of serving it.
//
// The hashed bytes are one JSON object, built in one place (cellKeys):
//
//	{"version":…,"config":…,"scheme":…,"profile":{…},"scale":…,"warmup":…,"measure":…}
//
// version, config (core.Config.Fingerprint) and scheme (the registered
// name: stable across kind renumbering) are JSON strings, profile is the
// workloads.Profile as encoding/json writes it, and the three numbers are
// the result-affecting Options fields. The strings and the profile are
// written by encoding/json and the integers in plain decimal, so escaping
// and field order are exactly what marshaling the whole object would
// produce (TestCellKeysMatchReference holds it to json.Marshal) — and
// the version stamp ties persisted keys to the modeled behaviour, not the
// source tree.

// CellFingerprint returns the content-addressed key of one cell under a
// version stamp. Only result-affecting Options fields participate:
// Parallelism and Progress change wall-clock behaviour, never results, so
// they are excluded and a sweep at any -j re-hits the same entries.
func CellFingerprint(version string, cfg core.Config, kind core.SchemeKind, prof workloads.Profile, opts Options) string {
	job := CellJob{Config: cfg, Scheme: kind, Bench: prof}
	keys, _, _ := cellKeys(version, 1, slices.Values([]CellJob{job}), opts)
	return keys[0]
}

// SpecKeys returns the content-addressed keys of spec's cells (Schemes
// filled), in the canonical enumeration order, under the default
// simulator version stamp: CellKey for every cell, derived without
// building the cells' jobs. Only tests call it: the engine derives its own
// keys (cellKeys) and hands them to an ExperimentResolver in the request
// context.
func SpecKeys(spec MatrixSpec, opts Options) []string {
	n := len(spec.Configs) * len(spec.Schemes) * len(spec.Benches)
	keys, _, _ := cellKeys(core.SimVersion, n, crossProduct(spec.Configs, spec.Schemes, spec.Benches), opts)
	return keys
}

// cellKeys derives the key of each of the n jobs in one pass. Each distinct
// configuration is fingerprinted once and each distinct scheme and
// profile encoded once; per job only the fragments are concatenated and
// hashed. The memo lives for this call only, so no request can grow
// process state. bench numbers the distinct profiles in order of first
// appearance (bench[i] is job i's; there are nbench of them), which
// RunCells reuses to group its dispatch.
func cellKeys(version string, n int, jobs iter.Seq[CellJob], opts Options) (keys []string, bench []int32, nbench int) {
	head := append([]byte(`{"version":`), jsonFragment(version, "version")...)
	head = append(head, `,"config":`...)
	tail := fmt.Appendf(nil, `,"scale":%d,"warmup":%d,"measure":%d}`,
		max(opts.Scale, 1), // RunOne clamps the same way
		opts.WarmupCycles, opts.MeasureCycles)

	configs := make(map[core.Config][]byte)
	schemes := make(map[core.SchemeKind][]byte)
	profiles := make(map[workloads.Profile]int32)
	var profJSON [][]byte

	keys = make([]string, 0, n)
	bench = make([]int32, 0, n)
	var buf []byte
	var hexKey [32]byte
	for job := range jobs {
		cfg, ok := configs[job.Config]
		if !ok {
			cfg = jsonFragment(job.Config.Fingerprint(), job.Config.Name)
			configs[job.Config] = cfg
		}
		scheme, ok := schemes[job.Scheme]
		if !ok {
			scheme = jsonFragment(job.Scheme.String(), job.Scheme.String())
			schemes[job.Scheme] = scheme
		}
		b, ok := profiles[job.Bench]
		if !ok {
			b = int32(len(profJSON))
			profiles[job.Bench] = b
			profJSON = append(profJSON, jsonFragment(job.Bench, job.Bench.Name))
		}
		bench = append(bench, b)

		buf = append(buf[:0], head...)
		buf = append(buf, cfg...)
		buf = append(buf, `,"scheme":`...)
		buf = append(buf, scheme...)
		buf = append(buf, `,"profile":`...)
		buf = append(buf, profJSON[b]...)
		buf = append(buf, tail...)
		sum := sha256.Sum256(buf)
		hex.Encode(hexKey[:], sum[:16])
		keys = append(keys, string(hexKey[:]))
	}
	return keys, bench, len(profJSON)
}

// jsonFragment encodes one value of the canonical form; what names it in
// the panic message.
func jsonFragment(v any, what string) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		// Strings, and a Profile of exported scalar fields, always marshal.
		panic(fmt.Sprintf("harness: cell fingerprint %s: %v", what, err))
	}
	return data
}
