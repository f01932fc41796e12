package simcache

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func specFor(t *testing.T, name string) workloads.Spec {
	t.Helper()
	s, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestKeyCanonicalEquality: configurations that compare equal — and
// configurations that are value-equal but built independently (distinct
// pointers to equal policy blocks) — must share a key.
func TestKeyCanonicalEquality(t *testing.T) {
	spec := specFor(t, "tpcc-1")
	a := sim.Default()
	b := a // shares the engine list, so a and b are deeply equal
	if !reflect.DeepEqual(a, b) {
		t.Fatal("copied config does not compare equal")
	}
	if KeyFor(spec, a, 60_000) != KeyFor(spec, b, 60_000) {
		t.Fatal("equal configs produced different keys")
	}

	// Same machine, independently built: the engine list's backing array
	// and the list member's adaptive block are distinct pointers, the
	// canonical key must not differ.
	adaptive := func() sim.Config {
		cc := core.DefaultConfig
		ac := core.DefaultAdaptive
		cc.Adaptive = &ac
		return sim.Default().WithContent(cc)
	}
	c1, c2 := adaptive(), adaptive()
	if &c1.Prefetchers[0] == &c2.Prefetchers[0] ||
		c1.Prefetchers[1].(core.Config).Adaptive == c2.Prefetchers[1].(core.Config).Adaptive {
		t.Fatal("test premise broken: independently built configs share a pointer")
	}
	if KeyFor(spec, c1, 60_000) != KeyFor(spec, c2, 60_000) {
		t.Fatal("value-equal configs with distinct pointers produced different keys")
	}
}

// TestKeyEngineList pins how the engine chain reaches the key: order is
// precedence and so part of the key, a nil and an empty chain are the same
// machine, and the member's type is hashed along with its fields.
func TestKeyEngineList(t *testing.T) {
	spec := specFor(t, "tpcc-1")
	key := func(cfg sim.Config) Key { return KeyFor(spec, cfg, 60_000) }

	mk := sim.Default().WithMarkov(128*1024, sim.Default().L2).WithEngine("pangloss")
	swapped := mk
	swapped.Prefetchers = slices.Clone(mk.Prefetchers)
	swapped.Prefetchers[1], swapped.Prefetchers[2] = swapped.Prefetchers[2], swapped.Prefetchers[1]
	if key(mk) == key(swapped) {
		t.Error("the same engines in a different order share a key")
	}

	bare := sim.Default()
	bare.Prefetchers = nil
	empty := bare
	empty.Prefetchers = []prefetch.Config{}
	if key(bare) != key(empty) {
		t.Error("a nil and an empty engine list produced different keys")
	}

	a, b := sim.Default(), sim.Default()
	a.Prefetchers = []prefetch.Config{prefetch.StrideConfig{TableEntries: 4, Degree: 1, Distance: 0}}
	b.Prefetchers = []prefetch.Config{strideTwin{TableEntries: 4, Degree: 1, Distance: 0}}
	if key(a) == key(b) {
		t.Error("two engine config types with identical fields share a key")
	}
}

// strideTwin mirrors prefetch.StrideConfig field for field, so only the
// dynamic type tag can tell the two apart in a key.
type strideTwin struct {
	TableEntries int
	Degree       int
	Distance     int
}

func (c strideTwin) Validate() error          { return nil }
func (c strideTwin) New() prefetch.Prefetcher { return prefetch.StrideConfig(c).New() }
func (c strideTwin) Stream() prefetch.Stream  { return prefetch.StreamL1 }

// TestKeySeparatesInputs: the non-config inputs (benchmark, ops) are part
// of the key.
func TestKeySeparatesInputs(t *testing.T) {
	cfg := sim.Default()
	base := KeyFor(specFor(t, "tpcc-1"), cfg, 60_000)
	if KeyFor(specFor(t, "tpcc-2"), cfg, 60_000) == base {
		t.Fatal("different benchmarks share a key")
	}
	if KeyFor(specFor(t, "tpcc-1"), cfg, 60_001) == base {
		t.Fatal("different µop budgets share a key")
	}
	if KeyForExperiment("fig1", 60_000, true) == KeyForExperiment("fig1", 60_000, false) {
		t.Fatal("reps flag not part of the experiment key")
	}
}

// TestKeySensitiveToEveryField walks the fully-populated configuration
// (content + markov + stride all enabled, so every pointer is followed)
// and perturbs each scalar leaf in turn: every single-field change must
// change the key, and undoing it must restore the key.
func TestKeySensitiveToEveryField(t *testing.T) {
	spec := specFor(t, "tpcc-1")
	cfg := sim.Default().WithContent(core.DefaultConfig)
	cfg = cfg.WithMarkov(128*1024, cfg.L2)
	// Deep-copy so mutations through pointer fields cannot corrupt
	// package-level defaults the config shares.
	v := deepCopy(reflect.ValueOf(cfg))
	base := KeyFor(spec, v.Interface().(sim.Config), 60_000)

	leaves := 0
	perturbLeaves(v, "Config", func(path string) {
		leaves++
		got := KeyFor(spec, v.Interface().(sim.Config), 60_000)
		if got == base {
			t.Errorf("mutating %s did not change the key", path)
		}
	})
	if leaves < 30 {
		t.Fatalf("walked only %d leaves; the config walk is not reaching nested blocks", leaves)
	}
	if got := KeyFor(spec, v.Interface().(sim.Config), 60_000); got != base {
		t.Fatal("restoring every field did not restore the key")
	}
}

// deepCopy clones a value tree of the kinds the canonical encoder accepts.
func deepCopy(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return v
		}
		p := reflect.New(v.Type().Elem())
		p.Elem().Set(deepCopy(v.Elem()))
		return p
	case reflect.Struct:
		out := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			out.Field(i).Set(deepCopy(v.Field(i)))
		}
		return out
	case reflect.Slice:
		if v.IsNil() {
			return v
		}
		out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			out.Index(i).Set(deepCopy(v.Index(i)))
		}
		return out
	case reflect.Interface:
		out := reflect.New(v.Type()).Elem()
		if !v.IsNil() {
			out.Set(deepCopy(v.Elem()))
		}
		return out
	default:
		out := reflect.New(v.Type()).Elem()
		out.Set(v)
		return out
	}
}

// perturbLeaves visits every scalar leaf reachable from v, mutates it,
// invokes check, and restores the original value before moving on.
func perturbLeaves(v reflect.Value, path string, check func(path string)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			perturbLeaves(v.Elem(), path, check)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			perturbLeaves(v.Field(i), path+"."+f.Name, check)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			perturbLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), check)
		}
	case reflect.Interface:
		// An interface's dynamic value is not settable in place: perturb
		// an addressable copy and store it back around each check.
		if v.IsNil() {
			return
		}
		elem := reflect.New(v.Elem().Type()).Elem()
		elem.Set(v.Elem())
		perturbLeaves(elem, fmt.Sprintf("%s(%s)", path, elem.Type()), func(p string) {
			v.Set(elem)
			check(p)
		})
		v.Set(elem)
	case reflect.Bool:
		old := v.Bool()
		v.SetBool(!old)
		check(path)
		v.SetBool(old)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := v.Int()
		v.SetInt(old + 1)
		check(path)
		v.SetInt(old)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		old := v.Uint()
		v.SetUint(old + 1)
		check(path)
		v.SetUint(old)
	case reflect.Float32, reflect.Float64:
		old := v.Float()
		v.SetFloat(old + 1)
		check(path)
		v.SetFloat(old)
	case reflect.String:
		old := v.String()
		v.SetString(old + "×")
		check(path)
		v.SetString(old)
	default:
		panic(fmt.Sprintf("perturbLeaves: unhandled kind %s at %s", v.Kind(), path))
	}
}
