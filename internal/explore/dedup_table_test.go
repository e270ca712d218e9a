package explore

import (
	"reflect"
	"testing"
)

// hasPointers reports whether a value of type t holds any pointer the
// garbage collector would have to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestDedupTablePointerFree: the dedup table's keys, its values and its
// closed records hold no pointer, so however many records a walk closes the
// garbage collector never scans them.
func TestDedupTablePointerFree(t *testing.T) {
	table := reflect.TypeOf(NewSourceDPOR(1, 0, 0).table)
	for _, typ := range []reflect.Type{table.Key(), table.Elem(), reflect.TypeOf(closedRec{})} {
		if hasPointers(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
	if !hasPointers(reflect.TypeOf(footKey{})) {
		t.Fatal("hasPointers misses the interface in footKey")
	}
}
