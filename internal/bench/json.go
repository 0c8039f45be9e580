package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// SwitchBaselineSchema versions the committed benchmark baseline; bump
// it when the sweep's shape or the cost model changes incompatibly.
const SwitchBaselineSchema = "mercury-bench/switch/v1"

// SwitchBaseline is the serialized form of the switch-latency trajectory,
// committed at the repo root as BENCH_switch.json.
type SwitchBaseline struct {
	Schema string             `json:"schema"`
	Scale  []SwitchScalePoint `json:"scale"`
}

// EncodeJSON is the encoding of every committed BENCH_*.json file:
// two-space indented JSON with a trailing newline.
func EncodeJSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench: encoding %T: %w", v, err)
	}
	return append(data, '\n'), nil
}

// Diff compares two JSON documents value by value and returns one
// message per difference, named by its JSON path:
//
//	sweep[3].virtual.forced_kicks: baseline 12, measured 13
//
// Numbers compare by their literal text, so integers beyond 2^53 are
// exact. Every baseline comes from a deterministic simulation, so there
// is no tolerance: an empty result means the run reproduced the
// baseline.
func Diff(baseline, measured []byte) ([]string, error) {
	b, err := decodeJSON(baseline)
	if err != nil {
		return nil, fmt.Errorf("bench: baseline: %w", err)
	}
	m, err := decodeJSON(measured)
	if err != nil {
		return nil, fmt.Errorf("bench: measured: %w", err)
	}
	var out []string
	diffValue(&out, "", b, m)
	return out, nil
}

func decodeJSON(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after the JSON value")
	}
	return v, nil
}

func diffValue(out *[]string, path string, base, got any) {
	switch b := base.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			break
		}
		keys := make([]string, 0, len(b)+len(g))
		for k := range b {
			keys = append(keys, k)
		}
		for k := range g {
			if _, ok := b[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := k
			if path != "" {
				p = path + "." + k
			}
			bv, inBase := b[k]
			gv, inGot := g[k]
			switch {
			case !inBase:
				*out = append(*out, fmt.Sprintf("%s: not in baseline, measured %s", p, brief(gv)))
			case !inGot:
				*out = append(*out, fmt.Sprintf("%s: baseline %s, not measured", p, brief(bv)))
			default:
				diffValue(out, p, bv, gv)
			}
		}
		return
	case []any:
		g, ok := got.([]any)
		if !ok {
			break
		}
		if len(b) != len(g) {
			*out = append(*out, fmt.Sprintf("%s: baseline %d elements, measured %d",
				label(path), len(b), len(g)))
		}
		for i := 0; i < len(b) && i < len(g); i++ {
			diffValue(out, path+"["+strconv.Itoa(i)+"]", b[i], g[i])
		}
		return
	default:
		if base == got {
			return
		}
	}
	*out = append(*out, fmt.Sprintf("%s: baseline %s, measured %s",
		label(path), brief(base), brief(got)))
}

// brief renders one side of a difference: scalars as their JSON text,
// containers by kind.
func brief(v any) string {
	switch v := v.(type) {
	case map[string]any:
		return "an object"
	case []any:
		return "an array"
	default:
		data, _ := json.Marshal(v) // a decoded scalar always encodes
		return string(data)
	}
}

func label(path string) string {
	if path == "" {
		return "(document)"
	}
	return path
}
