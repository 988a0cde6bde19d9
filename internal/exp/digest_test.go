package exp

import (
	"reflect"
	"testing"

	"tnpu/internal/npu"
)

// TestConfigDigestSensitivity walks npu.Config by reflection and bumps
// every leaf in turn: each one must move the digest, the `digest:"-"`
// display Name must not, and a leaf kind the walk cannot bump fails the
// test (ConfigDigest panics on it too).
func TestConfigDigestSensitivity(t *testing.T) {
	base := npu.SmallNPU()
	ref := ConfigDigest(base)
	if ConfigDigest(base) != ref {
		t.Fatal("digest not deterministic")
	}
	leaves := 0
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			name := path + f.Name
			old := reflect.New(fv.Type()).Elem()
			old.Set(fv)
			leaf := true
			switch {
			case f.Tag.Get("digest") == "-":
				if fv.Kind() != reflect.String {
					t.Fatalf("%s is skipped by the digest but is a %s, not a display string", name, fv.Kind())
				}
				fv.SetString(fv.String() + "-renamed")
				if ConfigDigest(base) != ref {
					t.Errorf("%s is display-only and must not change the digest", name)
				}
				leaf = false
			case fv.Kind() == reflect.Struct:
				walk(name+".", fv)
				leaf = false
			case fv.CanInt():
				fv.SetInt(fv.Int() + 1)
			case fv.CanUint():
				fv.SetUint(fv.Uint() + 1)
			default:
				t.Fatalf("%s has kind %s, which the digest cannot render", name, fv.Kind())
			}
			if leaf {
				leaves++
				if ConfigDigest(base) == ref {
					t.Errorf("bumping %s did not change the digest", name)
				}
			}
			fv.Set(old)
		}
	}
	walk("", reflect.ValueOf(&base).Elem())
	if leaves == 0 || ConfigDigest(base) != ref {
		t.Fatalf("walk bumped %d leaves and left the digest %s (want %s)", leaves, ConfigDigest(base), ref)
	}
}

// TestConfigDigestCoversAllFields pins the walk's refusal to skip a field
// silently: a leaf of a kind it cannot render panics instead of leaving
// the digest blind to it.
func TestConfigDigestCoversAllFields(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a float leaf was digested without a panic")
		}
	}()
	appendLeaves(nil, reflect.ValueOf(struct {
		Rows int
		Gain float64
	}{}))
}

func TestDigestConcatenationSafety(t *testing.T) {
	if Digest("v", "ab", "c") == Digest("v", "a", "bc") {
		t.Error("part boundaries must be digested (length-prefixed), not concatenated")
	}
	if Digest("v", "a") == Digest("va") {
		t.Error("version and parts must not concatenate")
	}
}

func TestDigestParamsOrderIndependent(t *testing.T) {
	a := DigestParams("v", "figure", map[string]string{"id": "fig14", "models": "df,res"})
	b := DigestParams("v", "figure", map[string]string{"models": "df,res", "id": "fig14"})
	if a != b {
		t.Error("param digest must not depend on map construction order")
	}
	c := DigestParams("v", "figure", map[string]string{"id": "fig15", "models": "df,res"})
	if a == c {
		t.Error("distinct params must digest differently")
	}
}
