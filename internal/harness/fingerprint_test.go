package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// cellInputs is the reference form of the canonical key bytes: the
// struct whose json.Marshal the fingerprint hashes. cellKeys builds the
// same bytes from fragments, so this is the definition it is checked
// against.
type cellInputs struct {
	Version string            `json:"version"`
	Config  string            `json:"config"`
	Scheme  string            `json:"scheme"`
	Profile workloads.Profile `json:"profile"`
	Scale   int               `json:"scale"`
	Warmup  uint64            `json:"warmup"`
	Measure uint64            `json:"measure"`
}

func referenceKey(t *testing.T, version string, job CellJob, opts Options) string {
	t.Helper()
	data, err := json.Marshal(cellInputs{
		Version: version,
		Config:  job.Config.Fingerprint(),
		Scheme:  job.Scheme.String(),
		Profile: job.Bench,
		Scale:   max(opts.Scale, 1),
		Warmup:  opts.WarmupCycles,
		Measure: opts.MeasureCycles,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}

// TestCellKeysMatchReference: the one-pass deriver hashes exactly the
// bytes json.Marshal(cellInputs) produces, for every configuration row ×
// scheme × proxy at scales 0, 1 and 3, under a version stamp that
// encoding/json must escape (a quote, HTML characters and U+2028). Each
// single-job call (CellFingerprint) agrees with the batch.
func TestCellKeysMatchReference(t *testing.T) {
	configs := append(core.Configs(), core.Gem5STTConfig(), core.Gem5NDAConfig())
	suite := workloads.Suite()
	jobs := enumerateJobs(configs, core.SchemeKinds(), suite)
	for _, version := range []string{"test/v1", "q\"<&>\u2028\\/é"} {
		for _, scale := range []int{0, 1, 3} {
			opts := DefaultOptions()
			opts.Scale = scale
			opts.WarmupCycles = 1 << 40
			opts.MeasureCycles = 12_345
			keys, bench, nbench := cellKeys(version, len(jobs), slices.Values(jobs), opts)
			if nbench != len(suite) {
				t.Fatalf("%d distinct profiles, want %d", nbench, len(suite))
			}
			for i, job := range jobs {
				want := referenceKey(t, version, job, opts)
				if keys[i] != want {
					t.Fatalf("version %q scale %d %s/%s/%s: key %s, reference %s",
						version, scale, job.Config.Name, job.Scheme, job.Bench.Name, keys[i], want)
				}
				if suite[bench[i]] != job.Bench {
					t.Fatalf("job %d (%s) numbered as profile %d", i, job.Bench.Name, bench[i])
				}
				if i%97 == 0 {
					if got := CellFingerprint(version, job.Config, job.Scheme, job.Bench, opts); got != want {
						t.Fatalf("CellFingerprint %s, reference %s", got, want)
					}
				}
			}
		}
	}
}
