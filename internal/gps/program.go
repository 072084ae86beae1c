// Package gps reimplements the GPS distributed graph processing system of
// §4.3 on the simulated cluster: a Pregel-style bulk-synchronous engine
// where each node owns a vertex partition (round-robin by ID, GPS's
// default), supersteps run vertex compute functions written in FJ, and
// messages are serialized between nodes at superstep boundaries.
//
// Mirroring the paper's observation that GPS already uses primitive arrays
// extensively (which is why its GC share is only 1-17% and FACADE's gains
// there are modest), the partition's adjacency lives in flat int arrays;
// per-superstep allocation is limited to vertex wrappers and message
// objects.
package gps

import (
	"repro/facade"
	"repro/internal/ir"
)

// Source is the FJ data path of the engine.
const Source = `
// GPS data path: vertex-centric compute functions.

class Message {
    double value;
    Message next;
}

class GPSVertex {
    int id;
    double value;
    int adjStart;
    int adjEnd;
    Message msgs;

    GPSVertex(int id, double value, int adjStart, int adjEnd) {
        this.id = id;
        this.value = value;
        this.adjStart = adjStart;
        this.adjEnd = adjEnd;
    }

    void addMsg(Message m) {
        m.next = this.msgs;
        this.msgs = m;
    }

    double sumMsgs() {
        double s = 0.0;
        Message m = this.msgs;
        while (m != null) {
            s = s + m.value;
            m = m.next;
        }
        return s;
    }

    int countMsgs() {
        int n = 0;
        Message m = this.msgs;
        while (m != null) {
            n = n + 1;
            m = m.next;
        }
        return n;
    }

    void clearMsgs() { this.msgs = null; }

    int degree() { return this.adjEnd - this.adjStart; }
}

// KPoint is a k-means data point.
class KPoint {
    double x;
    double y;
    int cluster;

    KPoint(double x, double y) {
        this.x = x;
        this.y = y;
        this.cluster = -1;
    }
}

class GPSDriver {
    // buildPartition wraps the node's flat vertex data in GPSVertex
    // objects (allocated before any superstep: these live for the whole
    // job, like GPS's object-array graph representation).
    static GPSVertex[] buildPartition(int[] ids, double[] vals, int[] adjIndex) {
        GPSVertex[] vs = new GPSVertex[ids.length];
        for (int i = 0; i < ids.length; i = i + 1) {
            vs[i] = new GPSVertex(ids[i], vals[i], adjIndex[i], adjIndex[i + 1]);
        }
        return vs;
    }

    // deliver materializes incoming message values onto their target
    // vertices (Message objects churn per superstep).
    static void deliver(GPSVertex[] vs, int[] localIdx, double[] mvals) {
        for (int i = 0; i < localIdx.length; i = i + 1) {
            Message m = new Message();
            m.value = mvals[i];
            vs[localIdx[i]].addMsg(m);
        }
    }

    // prStep runs one PageRank superstep: absorb messages, update values,
    // emit value/degree along every out-edge. Returns messages emitted.
    static int prStep(GPSVertex[] vs, int[] adj, int[] outTargets, double[] outVals, boolean first, boolean last) {
        int e = 0;
        for (int i = 0; i < vs.length; i = i + 1) {
            GPSVertex v = vs[i];
            if (!first) {
                v.value = 0.15 + 0.85 * v.sumMsgs();
            }
            v.clearMsgs();
            if (!last) {
                int d = v.degree();
                if (d > 0) {
                    double share = v.value / d;
                    for (int k = v.adjStart; k < v.adjEnd; k = k + 1) {
                        outTargets[e] = adj[k];
                        outVals[e] = share;
                        e = e + 1;
                    }
                }
            }
        }
        return e;
    }

    // rwStep moves every arriving walker to a uniformly random
    // out-neighbor, counting visits in v.value. Returns walkers emitted.
    static int rwStep(GPSVertex[] vs, int[] adj, int[] outTargets, boolean last) {
        int e = 0;
        for (int i = 0; i < vs.length; i = i + 1) {
            GPSVertex v = vs[i];
            int walkers = v.countMsgs();
            v.clearMsgs();
            v.value = v.value + walkers;
            if (!last) {
                int d = v.degree();
                for (int w = 0; w < walkers; w = w + 1) {
                    int t;
                    if (d > 0) {
                        t = adj[v.adjStart + Sys.rand(d)];
                    } else {
                        t = v.id;
                    }
                    outTargets[e] = t;
                    e = e + 1;
                }
            }
        }
        return e;
    }

    // seedWalkers places initial walkers (one message each) on the given
    // local vertices.
    static void seedWalkers(GPSVertex[] vs, int[] localIdx) {
        for (int i = 0; i < localIdx.length; i = i + 1) {
            Message m = new Message();
            m.value = 1.0;
            vs[localIdx[i]].addMsg(m);
        }
    }

    static void extractValues(GPSVertex[] vs, double[] out) {
        for (int i = 0; i < vs.length; i = i + 1) {
            out[i] = vs[i].value;
        }
    }

    // --- k-means ---

    static KPoint[] buildPoints(double[] xs, double[] ys) {
        KPoint[] pts = new KPoint[xs.length];
        for (int i = 0; i < xs.length; i = i + 1) {
            pts[i] = new KPoint(xs[i], ys[i]);
        }
        return pts;
    }

    // kmeansAssign assigns each point to its nearest centroid and
    // accumulates per-cluster sums into sums[3k]: sumX, sumY, count.
    static int kmeansAssign(KPoint[] pts, double[] cx, double[] cy, double[] sums) {
        int moved = 0;
        int k = cx.length;
        for (int i = 0; i < pts.length; i = i + 1) {
            KPoint p = pts[i];
            int best = 0;
            double bestD = 0.0;
            for (int c = 0; c < k; c = c + 1) {
                double dx = p.x - cx[c];
                double dy = p.y - cy[c];
                double d = dx * dx + dy * dy;
                if (c == 0 || d < bestD) {
                    bestD = d;
                    best = c;
                }
            }
            if (best != p.cluster) {
                moved = moved + 1;
                p.cluster = best;
            }
            sums[best * 3] = sums[best * 3] + p.x;
            sums[best * 3 + 1] = sums[best * 3 + 1] + p.y;
            sums[best * 3 + 2] = sums[best * 3 + 2] + 1.0;
        }
        return moved;
    }
}
`

// DataClasses is the data path handed to FACADE (the paper: 4 seed
// classes, 44 detected data classes, 13 boundary classes).
var DataClasses = []string{"GPSVertex", "Message", "KPoint", "GPSDriver"}

// BuildPrograms compiles the data path and returns (P, P'), both inlined
// (facade.Build).
func BuildPrograms() (*ir.Program, *ir.Program, error) {
	return facade.Build(map[string]string{"gps.fj": Source}, DataClasses)
}
