package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
)

// Every stored object is a deterministic function of its fingerprint, so
// its encoding is a private cache format, chosen for read speed: a warm
// re-run decodes one record per job. The record is
//
//	magic | version | layout digest | the value's fields
//
// where the value is an envelope (its full fingerprint first, then the
// Result or Checkpoint it carries). Fields are the exported ones not
// tagged `json:"-"`, in declaration order, recursively: integers as
// varints, floats as their IEEE bits, strings and slices length-prefixed
// (a slice's prefix is its length plus one, 0 for nil), pointers behind a
// presence byte, arrays element by element. Nothing names a field, so the
// layout digest — a hash of every encoded field's name and kind, in order
// — is what tells a record some other build of the types wrote.

// envelopeMagic opens every record.
const envelopeMagic = "vtev"

// layoutDigestLen is how many bytes of the layout hash a record carries.
const layoutDigestLen = 8

// codec encodes and decodes the values of one root type. A Sweep builds
// its own once (NewSweep): the walk that hashes the layout also lists
// each struct's encoded fields, so encoding never parses a tag.
type codec struct {
	layout [layoutDigestLen]byte
	fields map[reflect.Type][]int // encoded field indexes per struct type
}

// newCodec walks root's type tree. It panics on a kind the record cannot
// carry (map, interface, func, chan, complex, unsafe pointer) or a
// recursive type, so a payload field of such a kind fails every test
// instead of being dropped.
func newCodec(root reflect.Type) *codec {
	c := &codec{fields: map[reflect.Type][]int{}}
	var desc strings.Builder
	c.describe(&desc, root, map[reflect.Type]bool{})
	sum := sha256.Sum256([]byte(desc.String()))
	copy(c.layout[:], sum[:])
	return c
}

// describe writes t's layout — the encoded fields' names and kinds, in
// order — and records each struct's encoded fields.
func (c *codec) describe(w *strings.Builder, t reflect.Type, visiting map[reflect.Type]bool) {
	switch t.Kind() {
	case reflect.Bool, reflect.String, reflect.Float32, reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		w.WriteString(t.Kind().String())
	case reflect.Pointer:
		w.WriteByte('*')
		c.describe(w, t.Elem(), visiting)
	case reflect.Slice:
		w.WriteString("[]")
		c.describe(w, t.Elem(), visiting)
	case reflect.Array:
		fmt.Fprintf(w, "[%d]", t.Len())
		c.describe(w, t.Elem(), visiting)
	case reflect.Struct:
		if visiting[t] {
			panic(fmt.Sprintf("harness: the envelope codec cannot encode recursive type %s", t))
		}
		visiting[t] = true
		var idx []int
		w.WriteByte('{')
		for i := range t.NumField() {
			f := t.Field(i)
			if !f.IsExported() || f.Tag.Get("json") == "-" {
				continue
			}
			idx = append(idx, i)
			w.WriteString(f.Name)
			w.WriteByte(' ')
			c.describe(w, f.Type, visiting)
			w.WriteByte(';')
		}
		w.WriteByte('}')
		c.fields[t] = idx
		delete(visiting, t)
	default:
		panic(fmt.Sprintf("harness: the envelope codec cannot encode %s (kind %s)", t, t.Kind()))
	}
}

// encode returns v's record; v must have the codec's root type.
func (c *codec) encode(v any) []byte {
	b := make([]byte, 0, 512)
	b = append(b, envelopeMagic...)
	b = binary.AppendUvarint(b, diskCacheVersion)
	b = append(b, c.layout[:]...)
	return c.value(b, reflect.ValueOf(v))
}

func (c *codec) value(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float32:
		return binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v.Float())))
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		return append(b, v.String()...)
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return c.value(append(b, 1), v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(v.Len())+1)
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			b = c.value(b, v.Index(i))
		}
		return b
	case reflect.Struct:
		for _, i := range c.fields[v.Type()] {
			b = c.value(b, v.Field(i))
		}
		return b
	}
	panic(fmt.Sprintf("harness: the envelope codec cannot encode %s", v.Type()))
}

// decode fills v, a pointer to the codec's root type, from one whole
// record. It refuses a wrong magic, another diskCacheVersion, another
// layout, a record cut short and trailing bytes, each with an error
// naming it.
func (c *codec) decode(b []byte, v any) error {
	if len(b) < len(envelopeMagic) || string(b[:len(envelopeMagic)]) != envelopeMagic {
		return errors.New("wrong magic: not a binary envelope")
	}
	d := decoder{b: b, off: len(envelopeMagic)}
	if got := d.uvarint(); d.err == nil && got != diskCacheVersion {
		return fmt.Errorf("stale version %d (want %d)", got, diskCacheVersion)
	}
	if got := d.take(layoutDigestLen); d.err == nil && string(got) != string(c.layout[:]) {
		return fmt.Errorf("stale layout %x (want %x)", got, c.layout)
	}
	if d.err == nil {
		c.fill(&d, reflect.ValueOf(v).Elem())
	}
	if d.err == nil && d.off != len(b) {
		d.err = fmt.Errorf("%d trailing bytes", len(b)-d.off)
	}
	return d.err
}

func (c *codec) fill(d *decoder, v reflect.Value) {
	if d.err != nil {
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		switch d.byte() {
		case 0:
			v.SetBool(false)
		case 1:
			v.SetBool(true)
		default:
			d.fail("bad bool")
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := d.varint()
		if v.OverflowInt(x) {
			d.fail("integer out of range")
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := d.uvarint()
		if v.OverflowUint(x) {
			d.fail("integer out of range")
		}
		v.SetUint(x)
	case reflect.Float32:
		if p := d.take(4); p != nil {
			v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(p))))
		}
	case reflect.Float64:
		if p := d.take(8); p != nil {
			v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(p)))
		}
	case reflect.String:
		if p := d.take(d.length()); p != nil {
			v.SetString(string(p))
		}
	case reflect.Pointer:
		switch d.byte() {
		case 0:
			v.SetZero()
		case 1:
			v.Set(reflect.New(v.Type().Elem()))
			c.fill(d, v.Elem())
		default:
			d.fail("bad presence byte")
		}
	case reflect.Slice:
		n := d.uvarint()
		if n == 0 {
			v.SetZero()
			return
		}
		// Every element of a payload type takes at least one byte, so a
		// length the rest of the record cannot hold is a cut record, not
		// an allocation.
		if n-1 > uint64(len(d.b)-d.off) {
			d.fail("truncated record")
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), int(n-1), int(n-1)))
		for i := range v.Len() {
			c.fill(d, v.Index(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			c.fill(d, v.Index(i))
		}
	case reflect.Struct:
		for _, i := range c.fields[v.Type()] {
			c.fill(d, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("harness: the envelope codec cannot decode %s", v.Type()))
	}
}

// decoder reads one record. The first failure sticks in err, and every
// read after it returns zero values.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = errors.New(what)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.b)-d.off {
		d.fail("truncated record")
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *decoder) byte() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b[d.off:])
	d.advance(n)
	return x
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.b[d.off:])
	d.advance(n)
	return x
}

// advance steps past a varint of n bytes, as encoding/binary reports it:
// 0 when the record ends inside it, negative when it overflows 64 bits.
func (d *decoder) advance(n int) {
	switch {
	case n == 0:
		d.fail("truncated record")
	case n < 0:
		d.fail("varint overflows 64 bits")
	default:
		d.off += n
	}
}

// length reads a string's length prefix, -1 (refused by take) when it
// exceeds what the record has left.
func (d *decoder) length() int {
	n := d.uvarint()
	if n > uint64(len(d.b)-d.off) {
		return -1
	}
	return int(n)
}
