package snapshot

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
)

// Canonical appends a deterministic encoding of the plain data v holds,
// found by reflection: every struct field in declaration order (unexported
// ones included), integers and bools through the fixed-width primitives,
// floats as raw IEEE-754 bits, strings, slices and arrays length-prefixed,
// pointers as a presence byte followed by the pointee when set, and maps as
// a length followed by their entries in sorted key order. Nil and empty
// slices or maps encode alike; a nil and a set pointer do not.
//
// It is the encoding behind configuration identity keys (sim.Config.Key),
// where every input must reach the bytes exactly. Funcs, channels,
// interfaces and complex numbers have no canonical bytes and panic, as do
// map keys that are not signed integers.
func (e *Encoder) Canonical(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		e.Bool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.I64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.U64(v.Uint())
	case reflect.Float32, reflect.Float64:
		e.F64(v.Float())
	case reflect.String:
		e.String(v.String())
	case reflect.Slice, reflect.Array:
		e.U32(uint32(v.Len()))
		for i := 0; i < v.Len(); i++ {
			e.Canonical(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			e.Canonical(v.Field(i))
		}
	case reflect.Pointer:
		e.Bool(!v.IsNil())
		if !v.IsNil() {
			e.Canonical(v.Elem())
		}
	case reflect.Map:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return cmp.Compare(a.Int(), b.Int()) })
		e.U32(uint32(len(keys)))
		for _, k := range keys {
			e.Canonical(k)
			e.Canonical(v.MapIndex(k))
		}
	default:
		panic(fmt.Sprintf("snapshot: no canonical encoding for %s", v.Type()))
	}
}

// Key returns the content address of everything encoded so far: the
// FNV-1a-64 of the bytes, as 16 hex digits.
func (e *Encoder) Key() string {
	h := fnv.New64a()
	h.Write(e.buf)
	return fmt.Sprintf("%016x", h.Sum64())
}
