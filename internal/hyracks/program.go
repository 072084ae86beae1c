// Package hyracks reimplements the Hyracks data-parallel platform of §4.2
// on the simulated shared-nothing cluster: MapReduce-style jobs whose
// operators run on every node, hash/range shuffling between a map and a
// reduce phase, and HDFS-style result files. The engine core (operator
// scheduling, partitioning, the network) is the control path in Go; the
// user-level data manipulation functions — tokenization, word-count
// aggregation over a hash map, record parsing, quicksort and merging for
// external sort — are FJ data-path code, the part FACADE transforms.
//
// Like the real Hyracks in the paper's setup, a worker loads its data
// partition up front before the operators start; that is what makes
// program P fail with OutOfMemoryError once the partition plus its object
// bloat exceeds the per-node heap (Table 3's OME rows).
package hyracks

import (
	"repro/facade"
	"repro/internal/ir"
)

// Source is the FJ data path for both evaluated applications.
const Source = `
// Hyracks user-level data path: word count and external sort.

class WordCounter {
    int count;
}

// WordCount aggregates word frequencies in a HashMap keyed by String, the
// object-heavy aggregation the paper's WC user functions perform.
class WordCount {
    HashMap map;

    WordCount() { this.map = new HashMap(64); }

    void addWord(String w) {
        WordCounter c = (WordCounter) this.map.get(w);
        if (c == null) {
            c = new WordCounter();
            this.map.put(w, c);
        }
        c.count = c.count + 1;
    }

    void addCount(String w, int n) {
        WordCounter c = (WordCounter) this.map.get(w);
        if (c == null) {
            c = new WordCounter();
            this.map.put(w, c);
        }
        c.count = c.count + n;
    }

    int size() { return this.map.size(); }
}

class WCDriver {
    static boolean isSpace(byte b) {
        return b == 32 || b == 10 || b == 13 || b == 9;
    }

    // tokenize splits the partition buffer into words, allocating a
    // byte[] + String per occurrence — the churn FACADE is built to
    // absorb.
    static WordCount tokenize(byte[] buf) {
        WordCount wc = new WordCount();
        int i = 0;
        int n = buf.length;
        while (i < n) {
            while (i < n && WCDriver.isSpace(buf[i])) { i = i + 1; }
            int start = i;
            while (i < n && !WCDriver.isSpace(buf[i])) { i = i + 1; }
            if (i > start) {
                byte[] w = new byte[i - start];
                Sys.arraycopy(buf, start, w, 0, i - start);
                wc.addWord(new String(w));
            }
        }
        return wc;
    }

    static int totalKeyBytes(WordCount wc) {
        ArrayList es = wc.map.entries();
        int total = 0;
        for (int i = 0; i < es.size(); i = i + 1) {
            MapEntry e = (MapEntry) es.get(i);
            String w = (String) e.key;
            total = total + w.length();
        }
        return total;
    }

    // serialize flattens (word, count) pairs into the engine's transfer
    // arrays and computes each word's reducer partition.
    static void serialize(WordCount wc, byte[] bytes, int[] lens, int[] counts, int[] parts, int reducers) {
        ArrayList es = wc.map.entries();
        int off = 0;
        for (int i = 0; i < es.size(); i = i + 1) {
            MapEntry e = (MapEntry) es.get(i);
            String w = (String) e.key;
            WordCounter c = (WordCounter) e.val;
            byte[] v = w.value;
            Sys.arraycopy(v, 0, bytes, off, v.length);
            off = off + v.length;
            lens[i] = v.length;
            counts[i] = c.count;
            int h = w.hashCode() % reducers;
            if (h < 0) { h = h + reducers; }
            parts[i] = h;
        }
    }

    static void merge(WordCount wc, byte[] bytes, int[] lens, int[] counts) {
        int off = 0;
        for (int i = 0; i < lens.length; i = i + 1) {
            int l = lens[i];
            byte[] w = new byte[l];
            Sys.arraycopy(bytes, off, w, 0, l);
            off = off + l;
            wc.addCount(new String(w), counts[i]);
        }
    }
}

// SRecord is one external-sort record: key plus payload.
class SRecord {
    byte[] key;
    byte[] payload;

    SRecord(byte[] k, byte[] p) {
        this.key = k;
        this.payload = p;
    }

    int compareTo(SRecord o) {
        byte[] a = this.key;
        byte[] b = o.key;
        int n = a.length;
        if (b.length < n) { n = b.length; }
        for (int i = 0; i < n; i = i + 1) {
            if (a[i] != b[i]) { return a[i] - b[i]; }
        }
        return a.length - b.length;
    }
}

// RecordBatch is a sortable in-memory run of records.
class RecordBatch {
    SRecord[] recs;
    int n;

    RecordBatch(int cap) {
        this.recs = new SRecord[cap];
        this.n = 0;
    }

    void add(SRecord r) {
        this.recs[this.n] = r;
        this.n = this.n + 1;
    }

    void sort() {
        this.quickSort(0, this.n - 1);
    }

    void quickSort(int lo, int hi) {
        while (lo < hi) {
            int p = this.partition(lo, hi);
            if (p - lo < hi - p) {
                this.quickSort(lo, p - 1);
                lo = p + 1;
            } else {
                this.quickSort(p + 1, hi);
                hi = p - 1;
            }
        }
    }

    int partition(int lo, int hi) {
        SRecord pivot = this.recs[hi];
        int i = lo - 1;
        for (int j = lo; j < hi; j = j + 1) {
            if (this.recs[j].compareTo(pivot) <= 0) {
                i = i + 1;
                SRecord t = this.recs[i];
                this.recs[i] = this.recs[j];
                this.recs[j] = t;
            }
        }
        SRecord t = this.recs[i + 1];
        this.recs[i + 1] = this.recs[hi];
        this.recs[hi] = t;
        return i + 1;
    }

    boolean isSorted() {
        for (int i = 1; i < this.n; i = i + 1) {
            if (this.recs[i - 1].compareTo(this.recs[i]) > 0) { return false; }
        }
        return true;
    }
}

class ESDriver {
    // parse slices a fixed-width record buffer into SRecord objects.
    static RecordBatch parse(byte[] buf, int keyLen, int recLen) {
        int count = buf.length / recLen;
        RecordBatch b = new RecordBatch(count);
        for (int i = 0; i < count; i = i + 1) {
            int base = i * recLen;
            byte[] k = new byte[keyLen];
            Sys.arraycopy(buf, base, k, 0, keyLen);
            byte[] p = new byte[recLen - keyLen];
            Sys.arraycopy(buf, base + keyLen, p, 0, recLen - keyLen);
            b.add(new SRecord(k, p));
        }
        return b;
    }

    static void sortBatch(RecordBatch b) { b.sort(); }

    // serializeRange writes records [from,to) back to fixed-width bytes.
    static void serializeRange(RecordBatch b, int from, int to, byte[] out, int keyLen, int recLen) {
        for (int i = from; i < to; i = i + 1) {
            SRecord r = b.recs[i];
            int base = (i - from) * recLen;
            Sys.arraycopy(r.key, 0, out, base, keyLen);
            Sys.arraycopy(r.payload, 0, out, base + keyLen, recLen - keyLen);
        }
    }

    // rangeSplit returns the first index of a sorted batch whose record's
    // first key byte reaches bound (range partitioning for the shuffle).
    static int rangeSplit(RecordBatch b, int bound) {
        for (int i = 0; i < b.n; i = i + 1) {
            if (b.recs[i].key[0] >= bound) { return i; }
        }
        return b.n;
    }

    // mergeSorted merges two sorted batches into a new sorted batch.
    static RecordBatch mergeSorted(RecordBatch a, RecordBatch b) {
        RecordBatch out = new RecordBatch(a.n + b.n);
        int i = 0;
        int j = 0;
        while (i < a.n && j < b.n) {
            if (a.recs[i].compareTo(b.recs[j]) <= 0) {
                out.add(a.recs[i]);
                i = i + 1;
            } else {
                out.add(b.recs[j]);
                j = j + 1;
            }
        }
        while (i < a.n) { out.add(a.recs[i]); i = i + 1; }
        while (j < b.n) { out.add(b.recs[j]); j = j + 1; }
        return out;
    }
}
`

// DataClasses is the data path handed to FACADE (the paper found 8 data
// and boundary classes for Hyracks; the stdlib collections join through
// closure).
var DataClasses = []string{
	"WordCount", "WordCounter", "WCDriver",
	"SRecord", "RecordBatch", "ESDriver",
	"HashMap", "MapEntry", "ArrayList",
}

// BuildPrograms compiles the data path and returns (P, P'), both inlined
// (facade.Build).
func BuildPrograms() (*ir.Program, *ir.Program, error) {
	return facade.Build(map[string]string{"hyracks.fj": Source}, DataClasses)
}
