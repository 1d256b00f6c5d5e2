package harness

// Hooks for the tests of package harness_test, which import the farm and
// so cannot be package harness (record_hostile_test.go).
var (
	SampleRun = sampleRun
	CellLine  = cellLine
	FieldAt   = fieldAt
	WithField = withField
)

const TestKey = testKey

// Path is the file of key's entry.
func (c *DiskCache) Path(key string) string { return c.path(key) }
