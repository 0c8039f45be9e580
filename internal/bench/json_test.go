package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// gateDiff does what the benchtab gate does to one baseline: base is
// encoded with EncodeJSON, written and read back from disk, measured is
// encoded with EncodeJSON, and the two are compared with Diff.
func gateDiff(t *testing.T, base, measured any) []string {
	t.Helper()
	data, err := EncodeJSON(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeJSON(measured)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Diff(committed, got)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// wantDiff fails unless v is exactly want.
func wantDiff(t *testing.T, what string, v []string, want ...string) {
	t.Helper()
	if len(want) == 0 {
		want = nil
	}
	if !reflect.DeepEqual(v, want) {
		t.Errorf("%s:\n got %q\nwant %q", what, v, want)
	}
}

func TestDiff(t *testing.T) {
	const base = `{
  "schema": "mercury-bench/io/v1",
  "sweep": [
    {"queues": 1, "virtual": {"forced_kicks": 12, "final_mode": "native"}},
    {"queues": 4, "virtual": {"forced_kicks": 3, "final_mode": "native"}}
  ],
  "verified": true,
  "total_cyc": 18446744073709551614
}`
	cases := []struct {
		name     string
		measured string
		want     []string
	}{
		{"equal", base, nil},
		{"reindented", `{"schema":"mercury-bench/io/v1","sweep":[` +
			`{"queues":1,"virtual":{"forced_kicks":12,"final_mode":"native"}},` +
			`{"queues":4,"virtual":{"forced_kicks":3,"final_mode":"native"}}],` +
			`"verified":true,"total_cyc":18446744073709551614}`, nil},
		{"nested field", `{"schema": "mercury-bench/io/v1", "sweep": [
			{"queues": 1, "virtual": {"forced_kicks": 12, "final_mode": "native"}},
			{"queues": 4, "virtual": {"forced_kicks": 4, "final_mode": "native"}}],
			"verified": true, "total_cyc": 18446744073709551614}`,
			[]string{"sweep[1].virtual.forced_kicks: baseline 3, measured 4"}},
		{"array length", `{"schema": "mercury-bench/io/v1", "sweep": [
			{"queues": 1, "virtual": {"forced_kicks": 12, "final_mode": "native"}}],
			"verified": true, "total_cyc": 18446744073709551614}`,
			[]string{"sweep: baseline 2 elements, measured 1"}},
		{"schema", `{"schema": "mercury-bench/io/v2", "sweep": [
			{"queues": 1, "virtual": {"forced_kicks": 12, "final_mode": "native"}},
			{"queues": 4, "virtual": {"forced_kicks": 3, "final_mode": "native"}}],
			"verified": true, "total_cyc": 18446744073709551614}`,
			[]string{`schema: baseline "mercury-bench/io/v1", measured "mercury-bench/io/v2"`}},
		{"string and bool", `{"schema": "mercury-bench/io/v1", "sweep": [
			{"queues": 1, "virtual": {"forced_kicks": 12, "final_mode": "partial-virtual"}},
			{"queues": 4, "virtual": {"forced_kicks": 3, "final_mode": "native"}}],
			"verified": false, "total_cyc": 18446744073709551614}`,
			[]string{
				`sweep[0].virtual.final_mode: baseline "native", measured "partial-virtual"`,
				"verified: baseline true, measured false",
			}},
		{"uint64 above 2^53", `{"schema": "mercury-bench/io/v1", "sweep": [
			{"queues": 1, "virtual": {"forced_kicks": 12, "final_mode": "native"}},
			{"queues": 4, "virtual": {"forced_kicks": 3, "final_mode": "native"}}],
			"verified": true, "total_cyc": 18446744073709551615}`,
			[]string{"total_cyc: baseline 18446744073709551614, measured 18446744073709551615"}},
		{"missing and extra keys", `{"schema": "mercury-bench/io/v1", "sweep": [
			{"queues": 1, "virtual": {"forced_kicks": 12, "final_mode": "native"}},
			{"queues": 4, "virtual": {"forced_kicks": 3, "final_mode": "native"}}],
			"verified": true, "total": 1}`,
			[]string{
				"total: not in baseline, measured 1",
				"total_cyc: baseline 18446744073709551614, not measured",
			}},
		{"type change", `{"schema": "mercury-bench/io/v1", "sweep": {},
			"verified": true, "total_cyc": 18446744073709551614}`,
			[]string{"sweep: baseline an array, measured an object"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Diff([]byte(base), []byte(tc.measured))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Diff:\n got %q\nwant %q", got, tc.want)
			}
		})
	}

	if _, err := Diff([]byte(base), []byte(`{"schema": `)); err == nil {
		t.Error("truncated document accepted")
	}
	if _, err := Diff([]byte(base), []byte(base+base)); err == nil {
		t.Error("trailing data accepted")
	}
}
