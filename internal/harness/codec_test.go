package harness

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gpu"
)

// envelopeVersionAt and envelopeLayoutAt are where a record's version
// byte and layout digest sit (codec.go): after the magic, and after the
// one-byte version.
const (
	envelopeVersionAt = len(envelopeMagic)
	envelopeLayoutAt  = envelopeVersionAt + 1
)

// fillLeaves sets every leaf reachable from v to a non-zero value, distinct
// from the others where the leaf's type has room: every pointer is
// allocated, every slice holds two elements. A leaf whose type marshals to
// text (a named enum) gets 1, a value its name round-trips.
func fillLeaves(v reflect.Value, next *int) {
	*next++
	n := *next
	if v.CanAddr() && v.Kind() != reflect.Struct {
		if _, ok := v.Addr().Interface().(encoding.TextUnmarshaler); ok {
			v.SetInt(1)
			return
		}
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(n%100 + 1))
		if v.Type().Size() >= 4 {
			v.SetInt(-int64(n) * 7919)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(n%200 + 1))
		if v.Type().Size() >= 4 {
			v.SetUint(uint64(n) * 7919)
		}
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("leaf-%d", n))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillLeaves(v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			fillLeaves(v.Index(i), next)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fillLeaves(v.Field(i), next)
			}
		}
	default:
		panic(fmt.Sprintf("fillLeaves: %s", v.Type()))
	}
}

// filledEnvelopes returns a Result envelope and a Checkpoint envelope
// with every leaf set.
func filledEnvelopes() []envelope {
	n := 0
	var res gpu.Result
	var ck gpu.Checkpoint
	fillLeaves(reflect.ValueOf(&res).Elem(), &n)
	fillLeaves(reflect.ValueOf(&ck).Elem(), &n)
	return []envelope{
		{Fingerprint: "vecadd|s1|d60|0123abcd", Result: &res},
		{Fingerprint: "pathfinder|s1|d60|4567ef89", Checkpoint: &ck},
	}
}

// TestEnvelopeCodecRoundTrip holds the codec to every field of both
// payload kinds: a record decodes to a value DeepEqual to what was
// encoded, and to what the same value's encoding/json round trip gives.
func TestEnvelopeCodecRoundTrip(t *testing.T) {
	c := newCodec(reflect.TypeFor[envelope]())
	for _, e := range filledEnvelopes() {
		if e.Result != nil && e.Result.Sampling == nil {
			t.Fatal("the filled Result has no Sampling")
		}
		var got envelope
		if err := c.decode(c.encode(e), &got); err != nil {
			t.Fatalf("%s: %v", e.Fingerprint, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("%s: the round trip altered the envelope", e.Fingerprint)
		}
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON envelope
		if err := json.Unmarshal(b, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, viaJSON) {
			t.Fatalf("%s: the codec and encoding/json disagree", e.Fingerprint)
		}
	}
	// Nil and empty slices, a nil pointer and zero values survive as such.
	var sparse envelope
	sparse.Checkpoint = &gpu.Checkpoint{GridNext: []int{}}
	var got envelope
	if err := c.decode(c.encode(sparse), &got); err != nil || !reflect.DeepEqual(got, sparse) {
		t.Fatalf("sparse envelope: %v, equal %v", err, reflect.DeepEqual(got, sparse))
	}
}

// TestEnvelopeCodecRefuses damages a whole record each way the store's
// checksum cannot see — it was written so — and requires the decode to
// refuse it, naming the check that tripped.
func TestEnvelopeCodecRefuses(t *testing.T) {
	c := newCodec(reflect.TypeFor[envelope]())
	rec := c.encode(filledEnvelopes()[0])
	damaged := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(rec)) }
	type refusal struct {
		name, want string
		rec        []byte
	}
	cases := []refusal{
		{"trailing", "trailing bytes", append(bytes.Clone(rec), 0)},
		{"magic", "wrong magic", damaged(func(b []byte) []byte { b[0] ^= 0x20; return b })},
		{"version", fmt.Sprintf("stale version %d (want %d)", diskCacheVersion-1, diskCacheVersion),
			damaged(func(b []byte) []byte { b[envelopeVersionAt] = diskCacheVersion - 1; return b })},
		{"layout", "stale layout", damaged(func(b []byte) []byte { b[envelopeLayoutAt] ^= 1; return b })},
	}
	for n := range len(rec) {
		want := "truncated record"
		if n < len(envelopeMagic) {
			want = "wrong magic"
		}
		cases = append(cases, refusal{fmt.Sprintf("cut%d", n), want, rec[:n]})
	}
	for _, tc := range cases {
		var e envelope
		err := c.decode(tc.rec, &e)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode said %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestEnvelopeLayoutDigest shows that the layout digest is the types'
// shape: it changes when a field is added, renamed, retyped or reordered,
// and not for a field the codec does not encode or a type's name.
func TestEnvelopeLayoutDigest(t *testing.T) {
	type inner struct{ N int }
	type base struct {
		A int
		B string
		C *inner
	}
	type same struct {
		A       int
		B       string
		C       *inner
		hidden  int
		Ignored []int `json:"-"`
	}
	type added struct {
		A int
		B string
		C *inner
		D bool
	}
	type renamed struct {
		A  int
		Bx string
		C  *inner
	}
	type retyped struct {
		A int64
		B string
		C *inner
	}
	type reordered struct {
		B string
		A int
		C *inner
	}
	type deep struct {
		A int
		B string
		C *struct{ N uint }
	}
	digest := func(t reflect.Type) [layoutDigestLen]byte { return newCodec(t).layout }
	want := digest(reflect.TypeFor[base]())
	if got := digest(reflect.TypeFor[same]()); got != want {
		t.Errorf("an unexported or json:\"-\" field changed the digest")
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[added](), reflect.TypeFor[renamed](),
		reflect.TypeFor[retyped](), reflect.TypeFor[reordered](), reflect.TypeFor[deep]()} {
		if digest(typ) == want {
			t.Errorf("%s has base's layout digest", typ.Name())
		}
	}
	if a, b := digest(reflect.TypeFor[envelope]()), digest(reflect.TypeFor[envelope]()); a != b {
		t.Error("the envelope's layout digest is not deterministic")
	}

	// A field kind the record cannot carry stops the codec being built.
	for _, typ := range []reflect.Type{
		reflect.TypeFor[struct{ M map[string]int }](),
		reflect.TypeFor[struct{ I any }](),
		reflect.TypeFor[struct{ F func() }](),
		reflect.TypeFor[struct{ C chan int }](),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: the codec accepted it", typ)
				}
			}()
			newCodec(typ)
		}()
	}
}
