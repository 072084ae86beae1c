// Package stdlib ships the FJ standard library: Object, String, and the
// collection classes the benchmark data paths use. The paper transforms
// "all data classes in the JDK including various collection classes and
// array-based utility classes"; these are our equivalents, written in FJ
// so the FACADE transform applies to them like any user code.
package stdlib

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/lang"
)

// Source is the FJ source of the standard library.
const Source = `
// FJ standard library.

class Object {
    int hashCode() { return 0; }
    boolean equals(Object o) { return this == o; }
}

class String {
    byte[] value;

    String(byte[] v) { this.value = v; }

    int length() { return this.value.length; }

    byte charAt(int i) { return this.value[i]; }

    int hashCode() {
        int h = 0;
        byte[] v = this.value;
        for (int i = 0; i < v.length; i = i + 1) {
            h = h * 31 + v[i];
        }
        return h;
    }

    boolean equals(Object o) {
        if (!(o instanceof String)) { return false; }
        String s = (String) o;
        byte[] a = this.value;
        byte[] b = s.value;
        if (a.length != b.length) { return false; }
        for (int i = 0; i < a.length; i = i + 1) {
            if (a[i] != b[i]) { return false; }
        }
        return true;
    }

    int compareTo(String s) {
        byte[] a = this.value;
        byte[] b = s.value;
        int n = a.length;
        if (b.length < n) { n = b.length; }
        for (int i = 0; i < n; i = i + 1) {
            if (a[i] != b[i]) { return a[i] - b[i]; }
        }
        return a.length - b.length;
    }
}

// ArrayList is a growable array of Objects.
class ArrayList {
    Object[] elems;
    int count;

    ArrayList(int cap) {
        if (cap < 4) { cap = 4; }
        this.elems = new Object[cap];
        this.count = 0;
    }

    int size() { return this.count; }

    void add(Object o) {
        if (this.count == this.elems.length) { this.grow(); }
        this.elems[this.count] = o;
        this.count = this.count + 1;
    }

    void grow() {
        Object[] bigger = new Object[this.elems.length * 2];
        Sys.arraycopy(this.elems, 0, bigger, 0, this.count);
        Sys.release(this.elems);
        this.elems = bigger;
    }

    Object get(int i) { return this.elems[i]; }

    void set(int i, Object o) { this.elems[i] = o; }

    void clear() {
        for (int i = 0; i < this.count; i = i + 1) { this.elems[i] = null; }
        this.count = 0;
    }
}

// MapEntry is one bucket node of HashMap.
class MapEntry {
    int hash;
    Object key;
    Object val;
    MapEntry next;
}

// HashMap is a chained hash table over Object keys using virtual
// hashCode/equals.
class HashMap {
    MapEntry[] table;
    int count;

    HashMap(int cap) {
        int n = 8;
        while (n < cap) { n = n * 2; }
        this.table = new MapEntry[n];
        this.count = 0;
    }

    int size() { return this.count; }

    int indexFor(int h) {
        int i = h % this.table.length;
        if (i < 0) { i = i + this.table.length; }
        return i;
    }

    Object get(Object key) {
        int h = key.hashCode();
        MapEntry e = this.table[this.indexFor(h)];
        while (e != null) {
            if (e.hash == h && e.key.equals(key)) { return e.val; }
            e = e.next;
        }
        return null;
    }

    boolean containsKey(Object key) {
        int h = key.hashCode();
        MapEntry e = this.table[this.indexFor(h)];
        while (e != null) {
            if (e.hash == h && e.key.equals(key)) { return true; }
            e = e.next;
        }
        return false;
    }

    void put(Object key, Object val) {
        int h = key.hashCode();
        int i = this.indexFor(h);
        MapEntry e = this.table[i];
        while (e != null) {
            if (e.hash == h && e.key.equals(key)) {
                e.val = val;
                return;
            }
            e = e.next;
        }
        MapEntry fresh = new MapEntry();
        fresh.hash = h;
        fresh.key = key;
        fresh.val = val;
        fresh.next = this.table[i];
        this.table[i] = fresh;
        this.count = this.count + 1;
        if (this.count > this.table.length * 3 / 4) { this.resize(); }
    }

    void resize() {
        MapEntry[] old = this.table;
        this.table = new MapEntry[old.length * 2];
        this.count = 0;
        for (int i = 0; i < old.length; i = i + 1) {
            MapEntry e = old[i];
            while (e != null) {
                this.reinsert(e.key, e.val, e.hash);
                e = e.next;
            }
        }
        Sys.release(old);
    }

    void reinsert(Object key, Object val, int h) {
        int i = this.indexFor(h);
        MapEntry fresh = new MapEntry();
        fresh.hash = h;
        fresh.key = key;
        fresh.val = val;
        fresh.next = this.table[i];
        this.table[i] = fresh;
        this.count = this.count + 1;
    }

    // entries returns all entries as an ArrayList of MapEntry, for
    // deterministic iteration by callers that sort.
    ArrayList entries() {
        ArrayList out = new ArrayList(this.count);
        for (int i = 0; i < this.table.length; i = i + 1) {
            MapEntry e = this.table[i];
            while (e != null) {
                out.add(e);
                e = e.next;
            }
        }
        return out;
    }
}
`

// tokens is the stdlib's token stream, lexed once per process. Parsing
// only reads it, so every compile parses from the same slice; its capacity
// is clipped so that no append can write into it either.
//
// Only the lexing is shared. Check writes into the AST it is given
// (resolved symbols, expression types, coercions), class IDs and site
// numbers depend on how the user's classes interleave with the stdlib's,
// and the IR points into the per-program hierarchy, so each compile still
// parses, checks and lowers its own copy.
var tokens = sync.OnceValue(func() []lang.Token {
	toks, err := lang.Lex(fileName, Source)
	if err != nil {
		panic(fmt.Sprintf("stdlib does not lex: %v", err))
	}
	return slices.Clip(toks)
})

const fileName = "stdlib.fj"

// Parse returns a freshly parsed stdlib file. It panics on error: the
// source is a compile-time constant validated by tests.
func Parse() *lang.File {
	f, err := lang.ParseTokens(fileName, tokens())
	if err != nil {
		panic(fmt.Sprintf("stdlib does not parse: %v", err))
	}
	return f
}

// ParseWith parses user source files and returns them together with the
// stdlib, ready for lang.BuildHierarchy.
func ParseWith(sources map[string]string) ([]*lang.File, error) {
	files := []*lang.File{Parse()}
	// Deterministic order.
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		toks, err := lang.Lex(n, sources[n])
		if err != nil {
			return nil, err
		}
		f, err := lang.ParseTokens(n, toks)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
