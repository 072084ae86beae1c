// Package graphchi reimplements the GraphChi single-machine out-of-core
// graph engine (§4.1 of the FACADE paper) on the FJ VM. The control path —
// sharding, the parallel-sliding-windows load loop, the memory-budget
// interval selection, worker scheduling — is Go code; the data path — the
// ChiVertex/ChiPointer representation and the vertex update programs — is
// FJ code, which is exactly the part the FACADE transform rewrites.
//
// The paper's profile of GraphChi found ChiVertex, ChiPointer, and
// VertexDegree to be the classes whose instance counts grow with the
// input; those are the seed data classes here too.
package graphchi

import (
	"repro/facade"
	"repro/internal/ir"
)

// Source is the FJ data path of the engine.
const Source = `
// GraphChi data path.

class ChiPointer {
    int srcId;
    double value;
}

class VertexDegree {
    int inDeg;
    int outDeg;
}

class ChiVertex {
    int id;
    double value;
    int outDegree;
    int numInEdges;
    ChiPointer[] inEdges;

    ChiVertex(int id, int nIn, int outDeg) {
        this.id = id;
        this.outDegree = outDeg;
        this.numInEdges = nIn;
        this.inEdges = new ChiPointer[nIn];
    }

    double getValue() { return this.value; }
    void setValue(double v) { this.value = v; }
    int numIn() { return this.numInEdges; }
}

interface VertexProgram {
    void update(ChiVertex v);
}

class PageRankProgram implements VertexProgram {
    void update(ChiVertex v) {
        double sum = 0.0;
        ChiPointer[] in = v.inEdges;
        int n = v.numInEdges;
        for (int i = 0; i < n; i = i + 1) {
            sum = sum + in[i].value;
        }
        v.setValue(0.15 + 0.85 * sum);
    }
}

class ConnCompProgram implements VertexProgram {
    void update(ChiVertex v) {
        double m = v.getValue();
        ChiPointer[] in = v.inEdges;
        int n = v.numInEdges;
        for (int i = 0; i < n; i = i + 1) {
            if (in[i].value < m) { m = in[i].value; }
        }
        v.setValue(m);
    }
}

// GraphChiDriver hosts the batch entry points the engine's workers call
// across the boundary, each over one chunk [from, to) of an interval:
// subgraph construction, the update loop, and value extraction. A vertex's
// in-edges are converted from the shard's columns in one Sys.fillNew, the
// §3.5 conversion at the interaction point done in bulk.
class GraphChiDriver {
    static void buildRange(ChiVertex[] vs, int first, int from, int to, int e0,
            int[] inCounts, int[] outDegs, int[] srcs, double[] srcVals, double[] init) {
        int e = e0;
        for (int i = from; i < to; i = i + 1) {
            int nIn = inCounts[i];
            ChiVertex v = new ChiVertex(first + i, nIn, outDegs[i]);
            Sys.fillNew(v.inEdges, e, srcs, srcVals);
            e = e + nIn;
            v.setValue(init[i]);
            vs[i] = v;
        }
    }

    static void runRange(VertexProgram prog, ChiVertex[] vs, int from, int to) {
        for (int i = from; i < to; i = i + 1) {
            prog.update(vs[i]);
        }
    }

    static void extractRange(ChiVertex[] vs, double[] out, int from, int to) {
        for (int i = from; i < to; i = i + 1) {
            out[i] = vs[i].getValue();
        }
    }

    static VertexDegree degreeOf(int inDeg, int outDeg) {
        VertexDegree d = new VertexDegree();
        d.inDeg = inDeg;
        d.outDeg = outDeg;
        return d;
    }
}
`

// DataClasses is the data path handed to the FACADE transform: the three
// profiled classes plus the data-manipulation classes that touch them.
var DataClasses = []string{
	"ChiVertex", "ChiPointer", "VertexDegree",
	"PageRankProgram", "ConnCompProgram", "GraphChiDriver",
}

// BuildPrograms compiles the data path and returns (P, P'), both inlined
// (facade.Build).
func BuildPrograms() (*ir.Program, *ir.Program, error) {
	return facade.Build(map[string]string{"graphchi.fj": Source}, DataClasses)
}
