package hessian

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"qframan/internal/dfpt"
	"qframan/internal/geom"
)

// randomPhysics draws options whose every physics field is set and whose
// execution-only fields are zero — the image of ParsePhysics.
func randomPhysics(rng *rand.Rand) JobOptions {
	f := func() float64 { return math.Ldexp(rng.NormFloat64(), rng.Intn(40)-30) }
	var o JobOptions
	o.Step = f()
	o.SkipAlpha = rng.Intn(2) == 1
	o.SCF.MaxIter = int(rng.Int31())
	o.SCF.Tol, o.SCF.Mixing, o.SCF.Smearing = f(), f(), f()
	o.SCF.Field = geom.Vec3{X: f(), Y: f(), Z: f()}
	o.DFPT.Coulomb = dfpt.CoulombMode(rng.Intn(2))
	o.DFPT.GridSpacing, o.DFPT.GridMargin = f(), f()
	o.DFPT.BatchSide = int(rng.Int31())
	return o
}

// TestPhysicsRoundTrip: ParsePhysics inverts AppendPhysics on every physics
// field, the serialization is canonical (parse then append is the identity on
// bytes), and no malformed input — truncated, over-long, a count beyond int32,
// an unknown Coulomb mode, a flag byte that is not 0 or 1 — parses or panics.
// (internal/store's TestKeySurvivesPhysicsRoundTrip adds that the content key
// is the same on both sides.)
func TestPhysicsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 200; i++ {
		want := randomPhysics(rng)
		b := want.AppendPhysics(nil)
		got, err := ParsePhysics(b)
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("draw %d: parsed\n%+v\nwant\n%+v", i, got, want)
		}
		if !bytes.Equal(got.AppendPhysics(nil), b) {
			t.Fatalf("draw %d: serialization is not canonical", i)
		}
	}

	// Appending extends the caller's buffer and leaves its contents alone.
	valid := DefaultJobOptions().AppendPhysics([]byte("key:"))
	if !bytes.HasPrefix(valid, []byte("key:")) || len(valid) != 4+physicsSize {
		t.Fatalf("AppendPhysics wrote %d bytes after a 4-byte prefix, want %d", len(valid)-4, physicsSize)
	}
	valid = valid[4:]

	for cut := 0; cut < len(valid); cut++ {
		if _, err := ParsePhysics(valid[:cut]); err == nil {
			t.Fatalf("accepted %d of %d bytes", cut, len(valid))
		}
	}
	if _, err := ParsePhysics(append(append([]byte(nil), valid...), 0)); err == nil {
		t.Fatal("accepted a trailing byte")
	}
	badFlag := append([]byte(nil), valid...)
	badFlag[8] = 2 // SkipAlpha follows the 8-byte Step
	if _, err := ParsePhysics(badFlag); err == nil {
		t.Fatal("accepted a flag byte of 2")
	}
	beyondInt32 := int(int64(math.MaxInt32) + 1) // wraps negative where int is 32 bits: also out of range
	for name, mutate := range map[string]func(*JobOptions){
		"SCF.MaxIter beyond int32":    func(o *JobOptions) { o.SCF.MaxIter = beyondInt32 },
		"DFPT.BatchSide beyond int32": func(o *JobOptions) { o.DFPT.BatchSide = beyondInt32 },
		"unknown Coulomb mode":        func(o *JobOptions) { o.DFPT.Coulomb = dfpt.GridCoulomb + 1 },
	} {
		o := DefaultJobOptions()
		mutate(&o)
		if got, err := ParsePhysics(o.AppendPhysics(nil)); err == nil {
			t.Errorf("%s: parsed to %+v", name, got)
		}
	}
}

// executionOnly names the JobOptions fields that AppendPhysics deliberately
// leaves out: they steer how a job runs or where it starts, never what it
// converges to, so they belong neither in a store key nor on the wire.
var executionOnly = []string{
	"Obs", "SCF.Obs", "DFPT.Obs", // instrumentation: a traced run shares keys with an untraced one
	"SCF.InitDeltaQ", // warm-start charges
	"DFPT.InitP1",    // warm-start response
	"DFPT.Mixing",    // read by neither Coulomb mode; kept for bench/ only
}

func isExecutionOnly(path string) bool {
	for _, e := range executionOnly {
		if path == e || strings.HasPrefix(path, e+".") || strings.HasPrefix(path, e+"[") {
			return true
		}
	}
	return false
}

// TestPhysicsCoversEveryField is the guard behind "a new option is added in
// one struct and one encode/decode pair": it changes each leaf field of
// JobOptions, scf.Options and dfpt.Options in turn and requires the field to
// be either physics — the change moves the AppendPhysics bytes and survives
// ParsePhysics — or listed in executionOnly and absent from the bytes. A field
// added to any of the three structs fails here until it is classified.
func TestPhysicsCoversEveryField(t *testing.T) {
	base := randomPhysics(rand.New(rand.NewSource(7)))
	base.DFPT.Coulomb = dfpt.GammaCoulomb // so that +1 stays a known mode
	baseBytes := base.AppendPhysics(nil)

	var leaves int
	var walk func(path string, at func(*JobOptions) reflect.Value)
	walk = func(path string, at func(*JobOptions) reflect.Value) {
		v := at(&base)
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().Field(i).Name
				if path != "" {
					name = path + "." + name
				}
				walk(name, func(o *JobOptions) reflect.Value { return at(o).Field(i) })
			}
			return
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(path+"["+string(rune('0'+i))+"]", func(o *JobOptions) reflect.Value { return at(o).Index(i) })
			}
			return
		}
		leaves++
		mutated := base
		f := at(&mutated)
		if !f.CanSet() {
			t.Fatalf("%s: unexported option field — classify it by hand", path)
		}
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(f.Float() + 1.5)
		case reflect.Int, reflect.Int32:
			f.SetInt(f.Int() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			t.Fatalf("%s: option field of kind %s — teach this test to change it", path, f.Kind())
		}
		moved := !bytes.Equal(mutated.AppendPhysics(nil), baseBytes)
		switch {
		case isExecutionOnly(path) && moved:
			t.Errorf("%s is listed execution-only but AppendPhysics serializes it", path)
		case !isExecutionOnly(path) && !moved:
			t.Errorf("%s is neither serialized by AppendPhysics nor listed execution-only", path)
		case moved:
			back, err := ParsePhysics(mutated.AppendPhysics(nil))
			if err != nil {
				t.Errorf("%s: %v", path, err)
			} else if got, want := at(&back).Interface(), f.Interface(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: AppendPhysics wrote %v, ParsePhysics read %v", path, want, got)
			}
		}
	}
	walk("", func(o *JobOptions) reflect.Value { return reflect.ValueOf(o).Elem() })
	if leaves < 20 {
		t.Fatalf("walked only %d option fields", leaves)
	}
}
