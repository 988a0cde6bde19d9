// Content-addressing for harness results. The service layer
// (internal/serve) persists simulation results on disk keyed by what they
// are a pure function of: the hardware configuration, the workload, the
// protection scheme, and the simulator's code version. The configuration
// digest walks npu.Config by reflection, so a new configuration knob is
// part of every key the moment it is declared; TestConfigDigestSensitivity
// bumps every leaf and checks that each one moves the digest.
package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strconv"

	"tnpu/internal/npu"
)

// CodeVersion identifies the simulator revision for content addressing.
// Any change that can alter simulation output (timing model, compiler,
// protection engines, figure definitions) must bump it: cached entries
// written under an older version become unreachable (their digests no
// longer match) rather than silently stale.
const CodeVersion = "tnpu-sim-7"

// ConfigDigest returns a stable hex digest of everything in an NPU
// hardware configuration that a simulation result depends on: every
// npu.Config leaf, rendered as its field name and integer value in
// declaration order. Only fields tagged `digest:"-"` (the display-only
// Name) are skipped, so a new knob can split keys but never merge them,
// and a leaf of any other kind panics rather than digest ambiguously.
func ConfigDigest(cfg npu.Config) string {
	sum := sha256.Sum256(appendLeaves(make([]byte, 0, 256), reflect.ValueOf(cfg)))
	return hex.EncodeToString(sum[:])
}

// appendLeaves renders struct v's leaves into buf, recursing into nested
// structs in declaration order.
func appendLeaves(buf []byte, v reflect.Value) []byte {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Tag.Get("digest") == "-" {
			continue
		}
		fv := v.Field(i)
		buf = append(buf, f.Name...)
		switch fv.Kind() {
		case reflect.Struct:
			buf = append(buf, '{')
			buf = appendLeaves(buf, fv)
			buf = append(buf, '}')
			continue
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			buf = strconv.AppendInt(append(buf, '='), fv.Int(), 10)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			buf = strconv.AppendUint(append(buf, '='), fv.Uint(), 10)
		default:
			panic(fmt.Sprintf("exp: ConfigDigest cannot render %s.%s of kind %s", t, f.Name, fv.Kind()))
		}
		buf = append(buf, '|')
	}
	return buf
}

// Digest hashes a code version plus an ordered list of key parts into one
// content address. Parts are length-prefixed so no two distinct part
// lists can collide by concatenation ("ab","c" vs "a","bc").
func Digest(codeVersion string, parts ...string) string {
	h := sha256.New()
	fmt.Fprintf(h, "v=%d:%s", len(codeVersion), codeVersion)
	for _, p := range parts {
		fmt.Fprintf(h, "|%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DigestParams canonicalizes a parameter map into ordered key=value parts
// for Digest, so handlers can address artifacts without worrying about
// query-parameter order.
func DigestParams(codeVersion, kind string, params map[string]string) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, 1+len(keys))
	parts = append(parts, kind)
	for _, k := range keys {
		parts = append(parts, k+"="+params[k])
	}
	return Digest(codeVersion, parts...)
}
