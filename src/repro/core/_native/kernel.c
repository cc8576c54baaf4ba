/* Native kernel: the k-ary SplayNet serve hot loop, the Theorem 2
 * optimal-tree DP (forward pass and reconstruction) and the static-tree
 * entries (build, validate, cost).
 *
 * Serve path.  The depth-2 k-splay discipline of the object engine
 * (``repro.core.splaynet.KArySplayNet.serve`` -> ``splay_until`` ->
 * ``k_semi_splay`` / ``k_splay`` in ``repro.core.rotations``): the
 * epoch-stamped LCA walk, the k-semi-splay and k-splay rotation groups
 * as block moves over the nested run, and the routing/rotation/link cost
 * accounting.  It operates on the flat identifier-indexed layout of
 * ``repro.core.flat.FlatTree``, loaded into kernel-owned buffers by
 * ``repro.core.native.NativeTree``:
 *
 *   parent[nid], pslot[nid]          int64, length n + 1 (0 = null)
 *   children[nid * k + slot]         int64, 0 = empty slot
 *   routing[nid * (k - 1) + j]       double, sorted separators per node
 *   visit[nid], vdepth[nid]          int64 scratch for the LCA walk
 *
 * Rotations as block moves: the separators of a child nest strictly
 * inside one slot interval of its parent, so the merged separator run of a
 * rotation group is a concatenation of its rows, not a sorted merge.  With
 * y in slot sy of x and z in slot sz of y it is x[:sy] ++ y[:sz] ++ z ++
 * y[sz:] ++ x[sy:], and the merged child run (one subtree per merged
 * interval) is x[:sy] ++ y[:sz] ++ z ++ y[sz+1:] ++ x[sy+1:]; a
 * k-semi-splay nests y in x the same way.  Each new node then takes a
 * contiguous block of both runs, less the blocks of the nodes it adopts,
 * and one loop per new child row re-homes its children and counts the
 * link churn.
 *
 * Besides serving batches, the handle answers the single operations the
 * networks need between serves: repro_tree_splay_until (depth, splay to a
 * stop or to the root, one semi-reactive step) and repro_tree_lca
 * (distance), so no caller ever copies the tree out to rotate it.
 *
 * One serve call takes a *segmented* batch: the requests of several
 * consecutive client frames for one tree, with one (routing, rotations,
 * links) totals row per frame, so the per-call cost on the Python side is
 * paid once per run of frames rather than once per frame.  A plain batch
 * is one segment.
 *
 * Structural equivalence with the object engine is the contract: on any
 * request batch this kernel must produce the identical topology and the
 * identical cost totals (enforced per request by tests/test_native_engine.py
 * and the tests/core and tests/net hypothesis sweeps).  The object engine
 * is the readable reference; change it first, then mirror here.
 *
 * DP forward pass.  ``repro_dp_forward`` fills the exact int64 table of
 * ``repro.optimal.general._forward_numpy`` (same recurrence, same
 * additions, bit-identical entries), stored ``[t][L][i]`` so that both
 * operands of every inner minimum are contiguous in the segment start i.
 * Range rule: when every entry of w is >= 0 and n * max(w) < 2^29, every
 * finite DP value is below 2^29 (it is at most the cost of one tree on
 * its segment, a sum of L <= n entries of w), so the recurrence runs on
 * an int32 table with sentinel 2^30 - 1 (all pairwise sums fit) in the
 * first half of the caller's buffer, then widens it in place; otherwise
 * it runs on the int64 table.  The recurrence is one macro body
 * instantiated for both types; on Linux x86-64 its inner min-plus loop
 * also gets an AVX2 clone picked at load time (see repro_dp_forward for
 * the proof and for -DRK_NO_CLONES).
 *
 * Static trees.  Four entries build and use trees that never rotate, on
 * the same handle layout: repro_dp_reconstruct walks the table the
 * forward pass filled and wires the optimal tree (mirror of
 * repro.optimal.general._build_tree, tie-breaks and mismatch check
 * included); repro_build_complete wires the paper's full k-ary tree
 * (mirror of repro.core.builders.build_complete_tree); repro_tree_validate
 * checks a layout against the invariants of
 * repro.core.tree.KAryTreeNetwork.validate; repro_tree_distances costs a
 * request batch at tree distance (the static baselines' serve_trace).
 * The Python builders stay as the no-kernel path and as the oracles of
 * tests/core/test_static_entries.py.
 *
 * Built by repro.core._native with ``cc -O3 -shared -fPIC``; no Python.h
 * dependency, so any C toolchain works.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Mirror of repro.core.keyspace.MAX_K: the separator-value discipline
 * caps the arity at 40, so stack scratch can be statically sized. */
#define RK_MAX_K 40
#define RK_KM1_MAX (RK_MAX_K - 1)

/* Bumped whenever the entry-point signature or semantics change; the
 * Python loader refuses stale cached shared objects that report a
 * different version.  Version 2 added the resident-tree handle API
 * (repro_tree_create / load / serve_batch / serve_one / sync_out /
 * destroy); version 3 removed the stateless batch entry; version 4 added
 * the optimal-tree DP forward pass (repro_dp_forward); version 5 made
 * repro_tree_serve_batch segmented (one totals row per segment of the
 * batch, so one call answers many coalesced client frames); version 6
 * added repro_tree_splay_until and repro_tree_lca, so every query and
 * rotation of a k-ary SplayNet runs on the resident handle; version 7
 * added the static-tree entries repro_dp_reconstruct,
 * repro_build_complete, repro_tree_validate and repro_tree_distances. */
#define RK_ABI_VERSION 7

int64_t repro_kernel_abi(void) { return RK_ABI_VERSION; }

typedef struct {
    int64_t k, km1, km2, half;
    int64_t pol_center, pol_left;
    int64_t *parent;
    int64_t *pslot;
    int64_t *children;
    double *routing;
    int64_t root;
    int64_t lk; /* link churn of the request being served */
} rk_ctx;

/* bisect_left over a sorted run; no element ever equals v (identifiers
 * are integers, separators never are). */
static int64_t rk_count_less(const double *a, int64_t len, double v)
{
    int64_t i = 0;
    while (i < len && a[i] < v)
        i++;
    return i;
}

/* The serve path (from here to rk_serve_requests) copies rows of at most
 * k elements.  GCC would turn those short copy loops into libc memcpy
 * calls, which cost more than they move, so it is told not to here; other
 * compilers keep their default. */
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("no-tree-loop-distribute-patterns")
#endif

static inline void rk_copy_d(double *dst, const double *src, int64_t len)
{
    for (int64_t i = 0; i < len; i++)
        dst[i] = src[i];
}

static inline void rk_copy_i(int64_t *dst, const int64_t *src, int64_t len)
{
    for (int64_t i = 0; i < len; i++)
        dst[i] = src[i];
}

/* Write p's separator row from a merged run: slot t takes
 * run[t + (k-1) * ((t >= a) + (t >= b))], i.e. the row skips a block of
 * k - 1 separators at slot a and another at slot b (a = b skips 2(k-1)
 * at once; a, b >= k - 1 skip nothing). */
static inline void rk_sep_row(const rk_ctx *c, int64_t p, const double *run,
                              int64_t a, int64_t b)
{
    const int64_t km1 = c->km1;
    double *row = c->routing + p * km1;
    for (int64_t t = 0; t < km1; t++)
        row[t] = run[t + km1 * ((t >= a) + (t >= b))];
}

/* Write p's child row from a merged child run, the same way: slot a holds
 * na and slot b holds nb (the rotated group's own links, whose parent and
 * slot the caller has already set), the other slots take
 * run[t + (k-1) * ((t > a) + (t > b))] (a, b >= k: no own links).  Every
 * child in the row is re-homed; returns the link churn, two per child
 * whose parent changes.  An empty slot re-homes the null entry 0 like a
 * child (its churn masked, its parent and slot restored at the end): the
 * loop then has no data-dependent branch, which on rotation-heavy traces
 * is worth more than everything it writes. */
static inline int64_t rk_child_row(const rk_ctx *c, int64_t p,
                                   const int64_t *run, int64_t a, int64_t na,
                                   int64_t b, int64_t nb)
{
    const int64_t k = c->k, km1 = c->km1;
    int64_t *parent = c->parent, *pslot = c->pslot;
    int64_t *row = c->children + p * k;
    const int64_t parent0 = parent[0], pslot0 = pslot[0];
    int64_t churn = 0;
    for (int64_t t = 0; t < k; t++) {
        const int64_t ch = (t == a) ? na
                           : (t == b) ? nb
                                      : run[t + km1 * ((t > a) + (t > b))];
        row[t] = ch;
        churn += 2 * ((ch != 0) & (parent[ch] != p));
        parent[ch] = p;
        pslot[ch] = t;
    }
    parent[0] = parent0;
    pslot[0] = pslot0;
    return churn;
}

/* k-semi-splay: promote y above its parent x (g = x's parent, may be 0).
 * Mirror of repro.core.rotations.k_semi_splay.  Returns g. */
static int64_t rk_semi(rk_ctx *c, int64_t y, int64_t x, int64_t g)
{
    const int64_t k = c->k, km1 = c->km1;
    int64_t *parent = c->parent, *pslot = c->pslot;
    const int64_t gslot = pslot[x];
    const int64_t sy = pslot[y];

    /* Merged runs: separators x[:sy] ++ y ++ x[sy:], children
     * x[:sy] ++ y ++ x[sy+1:] (one per merged interval).  Each row is
     * copied whole at the offset of its kept part; what lands out of
     * place falls inside y's span and is overwritten by y. */
    double merged[2 * RK_KM1_MAX];
    int64_t run[2 * RK_MAX_K - 1];
    rk_copy_d(merged, c->routing + x * km1, km1);
    rk_copy_d(merged + km1, c->routing + x * km1, km1);
    rk_copy_d(merged + sy, c->routing + y * km1, km1);
    rk_copy_i(run, c->children + x * k, k);
    rk_copy_i(run + km1, c->children + x * k, k);
    rk_copy_i(run + sy, c->children + y * k, k);

    const int64_t pos_x = rk_count_less(merged, 2 * km1, (double)x);
    int64_t j;
    if (c->pol_center)
        j = pos_x - c->half;
    else if (c->pol_left)
        j = pos_x - km1;
    else
        j = pos_x;
    int64_t lo = pos_x - km1;
    if (lo < 0)
        lo = 0;
    const int64_t hi = (km1 < pos_x) ? km1 : pos_x;
    if (j < lo)
        j = lo;
    else if (j > hi)
        j = hi;

    /* x takes block j (intervals j .. j + k - 1); y keeps the rest, with
     * x in slot j. */
    parent[x] = y;
    pslot[x] = j;
    rk_sep_row(c, x, merged + j, km1, km1);
    rk_sep_row(c, y, merged, j, km1);
    c->lk += rk_child_row(c, x, run + j, k, 0, k, 0);
    c->lk += rk_child_row(c, y, run, j, x, k, 0) + (g ? 2 : 0);

    if (g) {
        c->children[g * k + gslot] = y;
        parent[y] = g;
        pslot[y] = gslot;
    } else {
        parent[y] = 0;
        pslot[y] = -1;
        c->root = y;
    }
    return g;
}

/* k-splay: promote z above parent y and grandparent x (both rotation
 * cases).  Mirror of repro.core.rotations.k_splay.
 * Returns x's old parent (the climb continues from there). */
static int64_t rk_splay(rk_ctx *c, int64_t z, int64_t y, int64_t x)
{
    const int64_t k = c->k, km1 = c->km1, km2 = c->km2;
    int64_t *parent = c->parent, *pslot = c->pslot;
    const double *rx = c->routing + x * km1, *ry = c->routing + y * km1;
    const int64_t *cx = c->children + x * k, *cy = c->children + y * k;
    const int64_t grand = parent[x];
    const int64_t gslot = pslot[x];
    const int64_t sy = pslot[y];
    const int64_t sz = pslot[z];

    /* Merged runs: separators x[:sy] ++ y[:sz] ++ z ++ y[sz:] ++ x[sy:],
     * children x[:sy] ++ y[:sz] ++ z ++ y[sz+1:] ++ x[sy+1:].  As in
     * rk_semi, rows are copied whole: x's misplaced parts fall inside
     * y's span, y's inside z's, and the later copies overwrite them. */
    double merged[3 * RK_KM1_MAX];
    int64_t run[3 * RK_KM1_MAX + 1];
    rk_copy_d(merged, rx, km1);
    rk_copy_d(merged + km2, rx, km1);
    rk_copy_d(merged + sy, ry, km1);
    rk_copy_d(merged + sy + km1, ry, km1);
    rk_copy_d(merged + sy + sz, c->routing + z * km1, km1);
    rk_copy_i(run, cx, k);
    rk_copy_i(run + km2, cx, k);
    rk_copy_i(run + sy, cy, k);
    rk_copy_i(run + sy + km1, cy, k);
    rk_copy_i(run + sy + sz, c->children + z * k, k);

    const int64_t pos_x = rk_count_less(merged, 3 * km1, (double)x);
    const int64_t pos_y = rk_count_less(merged, 3 * km1, (double)y);
    const int64_t diff = pos_x - pos_y;

    if (diff > km1 || -diff > km1) {
        /* ---- Case 1 (zig-zag analogue): x and y become children of z,
         * each taking a block; z keeps the rest, with them in its slots
         * j_lo and j_hi - (k - 1). */
        const int64_t lo_node = (diff < 0) ? x : y;
        const int64_t hi_node = (diff < 0) ? y : x;
        const int64_t pos_lo = (diff < 0) ? pos_x : pos_y;
        const int64_t pos_hi = (diff < 0) ? pos_y : pos_x;
        int64_t j_lo = pos_lo - km1;
        if (j_lo < 0)
            j_lo = 0;
        int64_t j_hi = km2;
        if (pos_hi < j_hi)
            j_hi = pos_hi;

        parent[lo_node] = z;
        pslot[lo_node] = j_lo;
        parent[hi_node] = z;
        pslot[hi_node] = j_hi - km1;
        rk_sep_row(c, lo_node, merged + j_lo, km1, km1);
        rk_sep_row(c, hi_node, merged + j_hi, km1, km1);
        rk_sep_row(c, z, merged, j_lo, j_hi - km1);
        c->lk += rk_child_row(c, lo_node, run + j_lo, k, 0, k, 0);
        c->lk += rk_child_row(c, hi_node, run + j_hi, k, 0, k, 0);
        c->lk += rk_child_row(c, z, run, j_lo, lo_node, j_hi - km1, hi_node);
        c->lk += 2; /* the x-y link becomes an x-z link */
    } else {
        /* ---- Case 2 (zig-zig analogue): chain reversed to z -> y -> x.
         * The pair run from j2 (2(k-1) separators, 2k - 1 children) goes
         * to y and x; z keeps the rest, with y in slot j2. */
        int64_t lo_pos, hi_pos;
        if (diff < 0) {
            lo_pos = pos_x;
            hi_pos = pos_y;
        } else {
            lo_pos = pos_y;
            hi_pos = pos_x;
        }
        int64_t j2 = hi_pos - km2 + (km2 - (hi_pos - lo_pos)) / 2;
        int64_t j2_lo = hi_pos - km2;
        if (j2_lo < 0)
            j2_lo = 0;
        const int64_t j2_hi = (km1 < lo_pos) ? km1 : lo_pos;
        if (j2 < j2_lo)
            j2 = j2_lo;
        else if (j2 > j2_hi)
            j2 = j2_hi;

        const int64_t pos_x2 = pos_x - j2;
        int64_t j1;
        if (c->pol_center)
            j1 = pos_x2 - c->half;
        else if (c->pol_left)
            j1 = pos_x2 - km1;
        else
            j1 = pos_x2;
        int64_t lo = pos_x2 - km1;
        if (lo < 0)
            lo = 0;
        const int64_t hi = (km1 < pos_x2) ? km1 : pos_x2;
        if (j1 < lo)
            j1 = lo;
        else if (j1 > hi)
            j1 = hi;

        parent[y] = z;
        pslot[y] = j2;
        parent[x] = y;
        pslot[x] = j1;
        rk_sep_row(c, x, merged + j2 + j1, km1, km1);
        rk_sep_row(c, y, merged + j2, j1, km1);
        rk_sep_row(c, z, merged, j2, j2);
        c->lk += rk_child_row(c, x, run + j2 + j1, k, 0, k, 0);
        c->lk += rk_child_row(c, y, run + j2, j1, x, k, 0);
        c->lk += rk_child_row(c, z, run, j2, y, j2, y);
    }

    if (grand) {
        c->children[grand * k + gslot] = z;
        parent[z] = grand;
        pslot[z] = gslot;
        c->lk += 2;
    } else {
        parent[z] = 0;
        pslot[z] = -1;
        c->root = z;
    }
    return grand;
}

/* Rotate x upward until its parent is stop (0 = the root), doing at most
 * cap rotations (a negative cap means no cap): a k-semi-splay when the
 * grandparent is stop or the root, a k-splay otherwise (mirror of
 * repro.core.splay.splay_until at depth 2).  Returns the rotations done;
 * the link churn accumulates in c->lk.  The caller guarantees that stop
 * is 0 or a proper ancestor of x. */
static int64_t rk_splay_until(rk_ctx *c, int64_t x, int64_t stop, int64_t cap)
{
    const int64_t *parent = c->parent;
    int64_t rot = 0;
    int64_t p = parent[x];
    while (p != stop && rot != cap) {
        const int64_t g = parent[p];
        rot++;
        if (g == stop || g == 0)
            p = rk_semi(c, x, p, g);
        else
            p = rk_splay(c, x, p, g);
    }
    return rot;
}

/* Lowest common ancestor of u and v: one walk up from u stamps its
 * ancestor chain with a fresh epoch, the walk up from v stops at the
 * first stamped node.  Returns the LCA; *du / *dv are the climbs from u
 * and v to it. */
static int64_t rk_lca(const int64_t *parent, int64_t *visit, int64_t *vdepth,
                      int64_t *epoch_io, int64_t u, int64_t v, int64_t *du,
                      int64_t *dv)
{
    const int64_t epoch = ++*epoch_io;
    int64_t node = u, d = 0;
    while (node) {
        visit[node] = epoch;
        vdepth[node] = d;
        node = parent[node];
        d++;
    }
    node = v;
    d = 0;
    while (visit[node] != epoch) {
        node = parent[node];
        d++;
    }
    *du = vdepth[node];
    *dv = d;
    return node;
}

/* The per-request serve loop behind the resident-tree handle API (mirror
 * of KArySplayNet.serve on the object engine: splay u into the LCA's
 * position, then v up to a child of u).  ``c`` must be fully initialized
 * (arity, policy flags, buffers, root); epoch_io is a one-element in/out
 * buffer; totals is a three-element out buffer (routing, rotations,
 * links); routing_series / rotation_series are optional length-m out
 * buffers (both NULL or both set). */
static void rk_serve_requests(rk_ctx *c, int64_t *visit, int64_t *vdepth,
                              int64_t *epoch_io, const int64_t *sources,
                              const int64_t *targets, int64_t m,
                              int64_t *routing_series,
                              int64_t *rotation_series, int64_t *totals)
{
    const int64_t *parent = c->parent;
    int64_t total_r = 0, total_rot = 0, total_l = 0;
    const int rec = (routing_series != NULL);

    for (int64_t i = 0; i < m; i++) {
        const int64_t u = sources[i], v = targets[i];
        if (u == v) {
            if (rec) {
                routing_series[i] = 0;
                rotation_series[i] = 0;
            }
            continue;
        }
        if (parent[u] == v || parent[v] == u) {
            /* Already adjacent: cost 1, both splay phases are no-ops. */
            total_r += 1;
            if (rec) {
                routing_series[i] = 1;
                rotation_series[i] = 0;
            }
            continue;
        }
        int64_t du, dv;
        const int64_t w = rk_lca(parent, visit, vdepth, epoch_io, u, v, &du,
                                 &dv);
        const int64_t req_routing = du + dv;
        total_r += req_routing;
        c->lk = 0;
        int64_t rot;
        if (w == v)
            rot = rk_splay_until(c, u, v, -1);
        else if (w == u)
            rot = rk_splay_until(c, v, u, -1);
        else {
            rot = rk_splay_until(c, u, parent[w], -1);
            rot += rk_splay_until(c, v, u, -1);
        }
        total_rot += rot;
        total_l += c->lk;
        if (rec) {
            routing_series[i] = req_routing;
            rotation_series[i] = rot;
        }
    }

    totals[0] = total_r;
    totals[1] = total_rot;
    totals[2] = total_l;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

/* Populate an rk_ctx from raw buffers; returns 0 when the arity is
 * outside the kernel's static scratch. */
static int rk_ctx_init(rk_ctx *c, int64_t k, int64_t policy, int64_t *parent,
                       int64_t *pslot, int64_t *children, double *routing,
                       int64_t root)
{
    if (k < 2 || k > RK_MAX_K)
        return 0;
    c->k = k;
    c->km1 = k - 1;
    c->km2 = 2 * (k - 1);
    c->half = (k - 1) / 2;
    c->pol_center = (policy == 0);
    c->pol_left = (policy == 1);
    c->parent = parent;
    c->pslot = pslot;
    c->children = children;
    c->routing = routing;
    c->root = root;
    c->lk = 0;
    return 1;
}

/* ====================================================================
 * Resident-tree handle API (ABI v2).
 *
 * repro_tree_create allocates a handle whose int64/double buffers the
 * kernel owns across calls, so serving costs no per-call marshalling:
 * the Python side loads the flat state once (repro_tree_load), serves
 * any mix of segmented batches (repro_tree_serve_batch) and single requests
 * (repro_tree_serve_one) against the resident buffers, and copies the
 * state back out only on snapshot/inspection (repro_tree_sync_out).
 * ==================================================================== */

typedef struct {
    int64_t n, k, root, epoch;
    int64_t *parent;   /* one calloc block: parent, pslot, visit,   */
    int64_t *pslot;    /* vdepth, then the (n+1) x k children rows  */
    int64_t *visit;
    int64_t *vdepth;
    int64_t *children;
    double *routing;   /* (n+1) x (k-1), separate block */
} rk_tree;

void *repro_tree_create(int64_t n, int64_t k)
{
    if (n < 0 || k < 2 || k > RK_MAX_K)
        return 0;
    rk_tree *t = (rk_tree *)malloc(sizeof(rk_tree));
    if (!t)
        return 0;
    const size_t rows = (size_t)(n + 1);
    t->parent = (int64_t *)calloc(rows * (size_t)(4 + k), sizeof(int64_t));
    t->routing = (double *)calloc(rows * (size_t)(k - 1), sizeof(double));
    if (!t->parent || !t->routing) {
        free(t->parent);
        free(t->routing);
        free(t);
        return 0;
    }
    t->pslot = t->parent + rows;
    t->visit = t->pslot + rows;
    t->vdepth = t->visit + rows;
    t->children = t->vdepth + rows;
    t->n = n;
    t->k = k;
    t->root = 0;
    t->epoch = 0;
    return t;
}

/* Copy a packed flat state into the resident buffers.  The epoch
 * counter is *not* reset: stale visit stamps can then never collide with
 * a fresh walk. */
void repro_tree_load(void *handle, int64_t root, const int64_t *parent,
                     const int64_t *pslot, const int64_t *children,
                     const double *routing)
{
    rk_tree *t = (rk_tree *)handle;
    const size_t rows = (size_t)(t->n + 1);
    memcpy(t->parent, parent, rows * sizeof(int64_t));
    memcpy(t->pslot, pslot, rows * sizeof(int64_t));
    memcpy(t->children, children, rows * (size_t)t->k * sizeof(int64_t));
    memcpy(t->routing, routing, rows * (size_t)(t->k - 1) * sizeof(double));
    t->root = root;
}

/* Copy the resident state back out (the dirty-flag sync target). */
void repro_tree_sync_out(void *handle, int64_t *root_out, int64_t *parent,
                         int64_t *pslot, int64_t *children, double *routing)
{
    rk_tree *t = (rk_tree *)handle;
    const size_t rows = (size_t)(t->n + 1);
    memcpy(parent, t->parent, rows * sizeof(int64_t));
    memcpy(pslot, t->pslot, rows * sizeof(int64_t));
    memcpy(children, t->children, rows * (size_t)t->k * sizeof(int64_t));
    memcpy(routing, t->routing, rows * (size_t)(t->k - 1) * sizeof(double));
    *root_out = t->root;
}

int64_t repro_tree_root(void *handle)
{
    return ((rk_tree *)handle)->root;
}

/* Serve a segmented request batch against the resident buffers.
 * Segment j covers requests [ends[j - 1], ends[j]) (ends[-1] = 0), so
 * the batch holds ends[nseg - 1] requests; the tree state carries over
 * from one segment to the next exactly as across separate calls.  policy
 * is 0/1/2 for center/left/right; totals is an nseg x 3 out buffer (one
 * routing, rotations, links row per segment); routing_series /
 * rotation_series are optional out buffers over the whole batch (both
 * NULL or both set).  Returns 0 on success; nothing is served and 1 is
 * returned when the arity is outside the supported range or ends is not
 * a non-decreasing run of non-negative offsets, 2 when a request u != v
 * names an identifier outside 1..n (a self-pair is served at cost 0
 * without touching the tree, whatever its identifier). */
int64_t repro_tree_serve_batch(void *handle, const int64_t *sources,
                               const int64_t *targets, const int64_t *ends,
                               int64_t nseg, int64_t policy,
                               int64_t *routing_series,
                               int64_t *rotation_series, int64_t *totals)
{
    rk_tree *t = (rk_tree *)handle;
    rk_ctx c;
    if (!rk_ctx_init(&c, t->k, policy, t->parent, t->pslot, t->children,
                     t->routing, t->root))
        return 1;
    for (int64_t j = 0, prev = 0; j < nseg; prev = ends[j++])
        if (ends[j] < prev)
            return 1;
    const int64_t m = nseg ? ends[nseg - 1] : 0, n = t->n;
    for (int64_t i = 0; i < m; i++) {
        const int64_t u = sources[i], v = targets[i];
        if (u != v && (u < 1 || u > n || v < 1 || v > n))
            return 2;
    }
    const int rec = (routing_series != NULL);
    for (int64_t j = 0, start = 0; j < nseg; start = ends[j++])
        rk_serve_requests(&c, t->visit, t->vdepth, &t->epoch,
                          sources + start, targets + start, ends[j] - start,
                          rec ? routing_series + start : 0,
                          rec ? rotation_series + start : 0, totals + 3 * j);
    t->root = c.root;
    return 0;
}

/* Scalar serve: one request, no batch marshalling on either side of the
 * boundary (the Session.serve hot path). */
int64_t repro_tree_serve_one(void *handle, int64_t u, int64_t v,
                             int64_t policy, int64_t *totals)
{
    const int64_t src[1] = {u};
    const int64_t dst[1] = {v};
    const int64_t end[1] = {1};
    return repro_tree_serve_batch(handle, src, dst, end, 1, policy, 0, 0,
                                  totals);
}

/* Rotate x upward on the resident tree until its parent is stop (0 = the
 * root), at most max_rotations rotations (negative: no cap), with the
 * serve path's own rotation loop.  A cap of 0 rotates nothing and only
 * measures; a cap of 1 is one k-splay or k-semi-splay step.  out is a
 * three-element buffer: x's depth before the call, the rotations done and
 * the link churn.  Returns 0 on success; nothing is touched and 1 is
 * returned for a policy outside 0..2, 2 for an x outside 1..n, 3 for a
 * stop that is neither 0 nor a proper ancestor of x (stop == x
 * included). */
int64_t repro_tree_splay_until(void *handle, int64_t x, int64_t stop,
                               int64_t max_rotations, int64_t policy,
                               int64_t *out)
{
    rk_tree *t = (rk_tree *)handle;
    rk_ctx c;
    if (policy < 0 || policy > 2 ||
        !rk_ctx_init(&c, t->k, policy, t->parent, t->pslot, t->children,
                     t->routing, t->root))
        return 1;
    if (x < 1 || x > t->n)
        return 2;
    int64_t depth = 0, seen = (stop == 0);
    for (int64_t node = t->parent[x]; node; node = t->parent[node]) {
        depth++;
        seen |= (node == stop);
    }
    if (!seen)
        return 3;
    out[0] = depth;
    out[1] = rk_splay_until(&c, x, stop, max_rotations);
    out[2] = c.lk;
    t->root = c.root;
    return 0;
}

/* Lowest common ancestor of u and v on the resident tree, by the serve
 * path's stamping walk.  out is a three-element buffer: the LCA and the
 * climbs from u and from v to it (their sum is the tree distance).
 * Returns 0 on success, 2 (touching nothing) when u or v is outside
 * 1..n. */
int64_t repro_tree_lca(void *handle, int64_t u, int64_t v, int64_t *out)
{
    rk_tree *t = (rk_tree *)handle;
    if (u < 1 || u > t->n || v < 1 || v > t->n)
        return 2;
    out[0] = rk_lca(t->parent, t->visit, t->vdepth, &t->epoch, u, v,
                    out + 1, out + 2);
    return 0;
}

void repro_tree_destroy(void *handle)
{
    rk_tree *t = (rk_tree *)handle;
    if (!t)
        return;
    free(t->parent);
    free(t->routing);
    free(t);
}

/* ------------------------------------------------------------------ */
/* Optimal-tree DP forward pass (Theorem 2, Appendix A.1)              */
/* ------------------------------------------------------------------ */

/* The minsum helpers get an AVX2 clone next to the baseline one where
 * the toolchain can dispatch between them at load time (GNU ifunc on
 * Linux x86-64); everywhere else, and under -DRK_NO_CLONES (the seam
 * the tests use to build the baseline path on an AVX2 machine), the
 * plain loop stands alone and -O3 still vectorises it. */
#if defined(__linux__) && defined(__x86_64__) &&                           \
    (defined(__GNUC__) || defined(__clang__)) && !defined(RK_NO_CLONES)
#define RK_DP_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define RK_DP_CLONES
#endif

/* Sentinel of the int32 table and the bound on n * max(w) under which
 * that table is used (see repro_dp_forward). */
#define RK_DP_INF32 ((int32_t)((1 << 30) - 1))
#define RK_DP_I32_LIMIT ((int64_t)(1 << 29) - 1)

/* Row (t, len) of a table laid out [t][L][i] with strides layer / row. */
#define RK_B(t, len) (b + (t) * layer + (len) * row)

/* The recurrence, written once and instantiated for one element type T:
 *
 *   rk_dp_minsum_SFX(acc, a, c, m)   acc[i] = min(acc[i], a[i] + c[i]),
 *                                    i < m;
 *   rk_dp_fill_SFX(n, k, w, b, inf)  fill the whole table b with
 *                                    sentinel inf (contract as for
 *                                    repro_dp_forward).
 *
 * For the int64_t instance every sum stays below 2 * inf (the Python
 * side caps finite costs below 2^60 and passes inf = 2^61); for the
 * int32_t instance the range rule in repro_dp_forward bounds them. */
#define RK_DP_DEFINE(T, SFX)                                                \
    static RK_DP_CLONES void rk_dp_minsum_##SFX(                            \
        T *restrict acc, const T *restrict a, const T *restrict c,          \
        int64_t m)                                                          \
    {                                                                       \
        for (int64_t i = 0; i < m; i++) {                                   \
            const T v = (T)(a[i] + c[i]);                                   \
            acc[i] = (v < acc[i]) ? v : acc[i];                             \
        }                                                                   \
    }                                                                       \
                                                                            \
    static void rk_dp_fill_##SFX(int64_t n, int64_t k, const int64_t *w,    \
                                 T *b, T inf)                               \
    {                                                                       \
        const int64_t row = n + 2;           /* stride of L */              \
        const int64_t layer = (n + 1) * row; /* stride of t */              \
        for (int64_t idx = 0; idx < (k + 1) * layer; idx++)                 \
            b[idx] = inf;                                                   \
        for (int64_t t = 1; t <= k; t++)                                    \
            memset(RK_B(t, 0), 0, (size_t)row * sizeof(T));                 \
        for (int64_t len = 1; len <= n; len++) {                            \
            const int64_t m = n - len + 1; /* segment starts 0 .. m-1 */    \
            /* Single tree: root i + s, dl trees left, k - dl right. */     \
            T *single = RK_B(1, len);                                       \
            for (int64_t s = 0; s < len; s++)                               \
                for (int64_t dl = 1; dl < k; dl++)                          \
                    rk_dp_minsum_##SFX(single, RK_B(dl, s),                 \
                                       RK_B(k - dl, len - 1 - s) + s + 1,   \
                                       m);                                  \
            for (int64_t i = 0; i < m; i++)                                 \
                single[i] = (T)(single[i] + w[i * (n + 1) + len]);          \
            /* Forests: at most t trees, the first of length s. */          \
            for (int64_t t = 2; t <= k; t++) {                              \
                T *forest = RK_B(t, len);                                   \
                memcpy(forest, RK_B(t - 1, len), (size_t)m * sizeof(T));    \
                for (int64_t s = 1; s < len; s++)                           \
                    rk_dp_minsum_##SFX(forest, RK_B(1, s),                  \
                                       RK_B(t - 1, len - s) + s, m);        \
            }                                                               \
        }                                                                   \
    }

RK_DP_DEFINE(int32_t, i32)
RK_DP_DEFINE(int64_t, i64)

#undef RK_DP_DEFINE
#undef RK_B

/* Whether w (shape (n + 1, n + 1)) satisfies the int32 range rule:
 * every entry >= 0 and n * max(w) <= RK_DP_I32_LIMIT, tested without
 * forming the product. */
static int rk_dp_fits_i32(int64_t n, const int64_t *w)
{
    int64_t maxw = 0;
    for (int64_t idx = 0; idx < (n + 1) * (n + 1); idx++) {
        if (w[idx] < 0)
            return 0;
        maxw = (w[idx] > maxw) ? w[idx] : maxw;
    }
    return maxw == 0 || n <= RK_DP_I32_LIMIT / maxw;
}

/* Fill the DP table b, shape (k + 1, n + 1, n + 2) indexed [t][L][i]:
 * B[t][L][i] is the minimum cost of covering the segment of length L at
 * 0-based start i with at most t routing-based k-ary trees.  w is the
 * boundary-crossing matrix, shape (n + 1, n + 1) indexed [i][L].  Every
 * entry of b is written: 0 for L = 0 (t >= 1), the DP value for
 * i + L <= n (t >= 1), inf everywhere else.  Returns 0 on success, 1 on
 * invalid arguments (b is then left untouched).
 *
 * Range rule.  When every entry of w is >= 0 and n * max(w) < 2^29, the
 * recurrence runs on an int32 table with sentinel INF32 = 2^30 - 1 (half
 * the bytes, twice the SIMD lanes) and is then widened to the int64
 * table, bit-identical to running it in int64 with sentinel inf:
 *
 *  - A finite entry is at most B[1][L][i]: B[t] starts as a copy of
 *    B[t - 1] and only ever decreases.
 *  - B[1][L][i] is at most the cost of one tree on the segment, e.g. the
 *    path rooted at i (s = 0, dl = 1: B[1][0][i] + B[k-1][L-1][i+1] +
 *    w[i][L]).  A tree's cost sums w over its L subtrees, so it is at
 *    most L * max(w) <= n * max(w) < 2^29.
 *  - Hence every pairwise sum fits in int32: finite + finite < 2^29,
 *    INF32 + finite < 2^31 - 2^29, INF32 + INF32 = 2^31 - 2.
 *  - Since w >= 0, a sum with an INF32 operand is >= INF32, so it never
 *    wins a minimum against the INF32 the accumulator starts from: every
 *    entry is either finite (then the same value as in int64, all sums
 *    being exact) or exactly INF32, and widening maps INF32 -> inf.
 *
 * The int32 table occupies the first half of the caller's int64 buffer,
 * so this path allocates nothing and peak memory is unchanged.  Widening
 * runs from the last entry down: int64 slot idx overwrites int32 slots
 * 2 idx and 2 idx + 1, which are at or past idx and so already read.
 * The values move through memcpy, so strict aliasing cannot reorder the
 * int32 loads after the int64 stores that overwrite them.  Otherwise
 * (a negative entry, or larger magnitudes) the int64 instance runs on b
 * directly. */
int64_t repro_dp_forward(int64_t n, int64_t k, const int64_t *w, int64_t *b,
                         int64_t inf)
{
    if (n < 0 || k < 2 || !w || !b)
        return 1;
    if (!rk_dp_fits_i32(n, w)) {
        rk_dp_fill_i64(n, k, w, b, inf);
        return 0;
    }
    rk_dp_fill_i32(n, k, w, (int32_t *)(void *)b, RK_DP_INF32);
    unsigned char *bytes = (unsigned char *)b;
    for (int64_t idx = (k + 1) * (n + 1) * (n + 2) - 1; idx >= 0; idx--) {
        int32_t narrow;
        memcpy(&narrow, bytes + idx * (int64_t)sizeof(int32_t),
               sizeof narrow);
        const int64_t wide = (narrow == RK_DP_INF32) ? inf : narrow;
        memcpy(bytes + idx * (int64_t)sizeof(int64_t), &wide, sizeof wide);
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Static trees on the handle: build, reconstruct, validate, cost      */
/* ------------------------------------------------------------------ */

/* The offline half of the reproduction (the full k-ary tree baseline and
 * the Theorem 2 optimal tree) builds its trees straight into a handle's
 * flat layout, checks them there and costs traces on them, so a static
 * tree never exists as Python node objects unless a caller asks for one.
 * Both builders write the separators of repro.core.keyspace bit for bit:
 * boundaries x + 0.5 and the private dyadic pads nid + 2^-2, nid + 2^-3,
 * ... (pad_values), sorted per node. */

/* Empty the layout of a handle: no node wired, pslot -1 everywhere (the
 * lists of repro.core.flat.FlatTree start the same way).  The epoch
 * counter is kept, as repro_tree_load keeps it. */
static void rk_layout_clear(rk_tree *t)
{
    const size_t rows = (size_t)(t->n + 1);
    memset(t->parent, 0, rows * sizeof(int64_t));
    for (size_t i = 0; i < rows; i++)
        t->pslot[i] = -1;
    memset(t->children, 0, rows * (size_t)t->k * sizeof(int64_t));
    memset(t->routing, 0, rows * (size_t)(t->k - 1) * sizeof(double));
    t->root = 0;
}

/* Write count private pads of node nid to out (mirror of
 * repro.core.keyspace.pad_values, including its precision check).
 * Returns 0 when float64 runs out of mantissa for nid. */
static int rk_pads(int64_t nid, int64_t count, double *out)
{
    const double base = (double)nid;
    double frac = 0.25;
    for (int64_t j = 0; j < count; j++, frac *= 0.5) {
        const double value = base + frac;
        if (value == base || value - base != frac)
            return 0;
        out[j] = value;
    }
    return 1;
}

/* Wire node nid below parent p at slot ps (p == 0: the root) with the
 * km1 separators seps, which are sorted in place first. */
static void rk_place(rk_tree *t, int64_t nid, int64_t p, int64_t ps,
                     double *seps)
{
    const int64_t km1 = t->k - 1;
    for (int64_t a = 1; a < km1; a++) {
        const double v = seps[a];
        int64_t b = a;
        for (; b > 0 && seps[b - 1] > v; b--)
            seps[b] = seps[b - 1];
        seps[b] = v;
    }
    memcpy(t->routing + nid * km1, seps, (size_t)km1 * sizeof(double));
    t->parent[nid] = p;
    t->pslot[nid] = ps;
    if (p)
        t->children[p * t->k + ps] = nid;
    else
        t->root = nid;
}

/* Build the paper's full k-ary tree on identifiers 1..n into the handle:
 * repro.core.builders.build_complete_tree with the centred own index
 * (complete_partitioner, then assemble_segment), levels full but the
 * last, which is packed left.  An explicit stack replaces the recursion.
 * Returns 0 on success, 1 for n < 1, 2 (with the node in *info) when a
 * pad would lose float64 precision, 3 when scratch allocation fails. */
int64_t repro_build_complete(void *handle, int64_t *info)
{
    rk_tree *t = (rk_tree *)handle;
    const int64_t n = t->n, k = t->k, km1 = k - 1;
    if (n < 1)
        return 1;
    int64_t *stack = (int64_t *)malloc((size_t)n * 4 * sizeof(int64_t));
    if (!stack)
        return 3;
    rk_layout_clear(t);
    int64_t top = 1;
    stack[0] = 1; /* lo, hi, parent, slot */
    stack[1] = n;
    stack[2] = 0;
    stack[3] = -1;
    while (top) {
        top--;
        const int64_t lo = stack[4 * top], hi = stack[4 * top + 1];
        const int64_t p = stack[4 * top + 2], ps = stack[4 * top + 3];
        const int64_t size = hi - lo + 1;
        int64_t sizes[RK_MAX_K], c = 0;
        if (size > 1) {
            /* levels: the fewest with capacity >= size; pk = k^(levels-1) */
            int64_t cap = 1, pk = 1;
            while (cap < size) {
                pk *= k;
                cap += pk;
            }
            const int64_t interior = cap - pk;
            const int64_t child_last_cap = pk / k;
            const int64_t child_full = interior - child_last_cap;
            const int64_t last = size - interior;
            for (int64_t j = 0; j < k; j++) {
                int64_t extra = last - j * child_last_cap;
                extra = extra < 0 ? 0 : extra;
                extra = extra > child_last_cap ? child_last_cap : extra;
                if (child_full + extra > 0)
                    sizes[c++] = child_full + extra;
            }
        }
        const int64_t own = (c + 1) / 2;
        int64_t blo[RK_MAX_K], bhi[RK_MAX_K];
        int64_t cursor = lo, nid = lo;
        for (int64_t j = 0; j < c; j++) {
            if (j == own)
                cursor++;
            blo[j] = cursor;
            bhi[j] = cursor + sizes[j] - 1;
            cursor += sizes[j];
            if (j < own)
                nid += sizes[j];
        }
        double seps[RK_KM1_MAX];
        int64_t ns = 0;
        for (int64_t j = 1; j < c; j++)
            seps[ns++] = (double)(j == own ? nid : bhi[j - 1]) + 0.5;
        if (!rk_pads(nid, km1 - ns, seps + ns)) {
            free(stack);
            *info = nid;
            return 2;
        }
        rk_place(t, nid, p, ps, seps);
        for (int64_t j = 0; j < c; j++) {
            stack[4 * top] = blo[j];
            stack[4 * top + 1] = bhi[j];
            stack[4 * top + 2] = nid;
            stack[4 * top + 3] = rk_count_less(t->routing + nid * km1, km1,
                                               (double)blo[j]);
            top++;
        }
    }
    free(stack);
    return 0;
}

/* One single-tree part (start i, length len) of a DP forest. */
typedef struct {
    int64_t i, len;
} rk_part;

/* Entry B[t, i, L] of a DP table laid out [t][L][i] (repro_dp_forward). */
#define RK_DPB(tt, ii, ll) (b[(tt) * layer + (ll) * row + (ii)])

/* Reconstruct the optimal routing-based k-ary tree from the table b that
 * repro_dp_forward just filled for the handle's n and k (w is the same
 * boundary-crossing matrix, inf the same sentinel) into the handle.
 * Mirror of repro.optimal.general._build_tree:
 *
 *  - the root of segment (i, L) is i + s + 1 with dl trees to its left,
 *    where (s, dl) is the first minimum of B[dl, i, s] + B[k - dl, i + s
 *    + 1, L - 1 - s] in s-major order (_single_tree_choice), and that
 *    minimum must equal B[1, i, L] - w[i, L] exactly;
 *  - each side splits into single-tree parts by _partition's rule: drop
 *    to t - 1 trees while B[t] does not beat B[t - 1], else cut off the
 *    first minimum of B[1, i, s] + B[t - 1, i + s, L - s];
 *  - the routing array is the root's identifier, a boundary below every
 *    part but the first on each side, and the root's pads; a part lands
 *    in the slot of its first identifier.
 *
 * An explicit stack replaces the recursion.  Returns 0 on success, 1 for
 * n < 1, 2 on a reconstruction mismatch (info: i, L, the minimum, the
 * target), 3 when a forest split finds no finite part (info: i, L, t),
 * 4 when a pad would lose float64 precision (info: the node), 5 when
 * scratch allocation fails. */
int64_t repro_dp_reconstruct(void *handle, const int64_t *w, const int64_t *b,
                             int64_t inf, int64_t *info)
{
    rk_tree *t = (rk_tree *)handle;
    const int64_t n = t->n, k = t->k, km1 = k - 1;
    const int64_t row = n + 2, layer = (n + 1) * row;
    if (n < 1)
        return 1;
    int64_t *stack = (int64_t *)malloc((size_t)n * 4 * sizeof(int64_t));
    if (!stack)
        return 5;
    rk_layout_clear(t);
    int64_t top = 1, status = 0;
    stack[0] = 0; /* i, L, parent, slot */
    stack[1] = n;
    stack[2] = 0;
    stack[3] = -1;
    while (top && !status) {
        top--;
        const int64_t i = stack[4 * top], len = stack[4 * top + 1];
        const int64_t p = stack[4 * top + 2], ps = stack[4 * top + 3];
        int64_t best = INT64_MAX, bs = 0, bdl = 1;
        for (int64_t s = 0; s < len; s++)
            for (int64_t dl = 1; dl < k; dl++) {
                const int64_t v = RK_DPB(dl, i, s) +
                                  RK_DPB(k - dl, i + s + 1, len - 1 - s);
                if (v < best) {
                    best = v;
                    bs = s;
                    bdl = dl;
                }
            }
        const int64_t target = RK_DPB(1, i, len) - w[i * (n + 1) + len];
        if (best != target) {
            info[0] = i;
            info[1] = len;
            info[2] = best;
            info[3] = target;
            status = 2;
            break;
        }
        /* parts[0 .. nl) left of the root, parts[nl .. np) right of it */
        rk_part parts[RK_MAX_K];
        int64_t np = 0, nl = 0;
        for (int side = 0; side < 2 && !status; side++) {
            int64_t si = side ? i + bs + 1 : i;
            int64_t sl = side ? len - 1 - bs : bs;
            int64_t st = side ? k - bdl : bdl;
            while (sl > 0) {
                if (st <= 1) {
                    parts[np].i = si;
                    parts[np++].len = sl;
                    break;
                }
                if (RK_DPB(st, si, sl) >= RK_DPB(st - 1, si, sl)) {
                    st--;
                    continue;
                }
                int64_t fbest = INT64_MAX, cut = 0;
                for (int64_t s = 1; s < sl; s++) {
                    const int64_t v =
                        RK_DPB(1, si, s) + RK_DPB(st - 1, si + s, sl - s);
                    if (v < fbest) {
                        fbest = v;
                        cut = s;
                    }
                }
                if (!cut || fbest >= inf) {
                    info[0] = si;
                    info[1] = sl;
                    info[2] = st;
                    status = 3;
                    break;
                }
                parts[np].i = si;
                parts[np++].len = cut;
                si += cut;
                sl -= cut;
                st--;
            }
            if (!side)
                nl = np;
        }
        if (status)
            break;
        const int64_t nid = i + bs + 1;
        double seps[RK_KM1_MAX];
        int64_t ns = 0;
        seps[ns++] = (double)nid;
        for (int64_t j = 1; j < nl; j++)
            seps[ns++] = (double)parts[j].i + 0.5;
        for (int64_t j = nl + 1; j < np; j++)
            seps[ns++] = (double)parts[j].i + 0.5;
        if (!rk_pads(nid, km1 - ns, seps + ns)) {
            info[0] = nid;
            status = 4;
            break;
        }
        rk_place(t, nid, p, ps, seps);
        for (int64_t j = 0; j < np; j++) {
            stack[4 * top] = parts[j].i;
            stack[4 * top + 1] = parts[j].len;
            stack[4 * top + 2] = nid;
            stack[4 * top + 3] = rk_count_less(t->routing + nid * km1, km1,
                                               (double)(parts[j].i + 1));
            top++;
        }
    }
    free(stack);
    return status;
}

#undef RK_DPB

/* Whether a double is an integer (repro.core.keyspace.is_identifier_value
 * on finite values; infinities and NaN are not). */
static int rk_is_integral(double v)
{
    if (!(v - v == 0.0))
        return 0;
    if (v >= 4503599627370496.0 || v <= -4503599627370496.0) /* 2^52 */
        return 1;
    return (double)(int64_t)v == v;
}

/* Check the handle's layout against the structural invariants of
 * repro.core.tree.KAryTreeNetwork.validate, in one preorder walk that
 * carries each node's ancestor window:
 *
 *   1  the root is in 1..n with parent 0 and pslot -1, and every child
 *      entry is an identifier in 1..n whose parent and pslot name the
 *      node and slot holding it;
 *   2  every routing array is strictly increasing inside the node's
 *      window (sorted, duplicate-free, finite, not escaping);
 *   3  no separator is an integer, unless routing_based is set
 *      (Definition 1(ii): there the identifiers double as separators);
 *   4  every identifier lies strictly inside its window;
 *   5  every node is reachable from the root.
 *
 * The search property (a child's subtree range inside the open interval
 * of its slot) needs no pass of its own: that interval is the child's
 * window, and by 2 the windows of its descendants nest inside it, so by
 * 4 a subtree escaping its slot is reported at its first node outside
 * the window.  Returns 0 when the layout is valid, else the number of
 * the first broken invariant, with the node it was found at in *info;
 * 6 when scratch allocation fails. */
int64_t repro_tree_validate(void *handle, int64_t routing_based,
                            int64_t *info)
{
    rk_tree *t = (rk_tree *)handle;
    const int64_t n = t->n, k = t->k, km1 = k - 1, root = t->root;
    const int64_t *parent = t->parent, *pslot = t->pslot;
    const int64_t *children = t->children;
    *info = root;
    if (root < 1 || root > n || parent[root] != 0 || pslot[root] != -1)
        return 1;
    int64_t *ids = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    double *win = (double *)malloc((size_t)n * 2 * sizeof(double));
    if (!ids || !win) {
        free(ids);
        free(win);
        return 6;
    }
    int64_t top = 1, seen = 0, status = 0;
    ids[0] = root;
    win[0] = -INFINITY;
    win[1] = INFINITY;
    while (top && !status) {
        top--;
        const int64_t x = ids[top];
        const double lo = win[2 * top], hi = win[2 * top + 1];
        const double *r = t->routing + x * km1;
        seen++;
        *info = x;
        double prev = lo;
        for (int64_t j = 0; j < km1; j++) {
            if (!(prev < r[j])) {
                status = 2;
                break;
            }
            if (!routing_based && rk_is_integral(r[j])) {
                status = 3;
                break;
            }
            prev = r[j];
        }
        if (status)
            break;
        if (!(prev < hi)) {
            status = 2;
            break;
        }
        if (!(lo < (double)x && (double)x < hi)) {
            status = 4;
            break;
        }
        for (int64_t s = 0; s < k; s++) {
            const int64_t c = children[x * k + s];
            if (!c)
                continue;
            /* Each node is pushed only by the parent and slot it names, so
             * the stack never holds more than n entries. */
            if (c < 1 || c > n || parent[c] != x || pslot[c] != s ||
                top == n) {
                *info = c;
                status = 1;
                break;
            }
            ids[top] = c;
            win[2 * top] = s > 0 ? r[s - 1] : lo;
            win[2 * top + 1] = s < km1 ? r[s] : hi;
            top++;
        }
    }
    if (!status && seen != n) {
        *info = seen;
        status = 5;
    }
    free(ids);
    free(win);
    return status;
}

/* Cost a request batch on the handle's tree without changing it: the
 * tree distance of every pair (sources[i], targets[i]), i < m, by
 * depth-and-parent LCA.  One preorder walk from the root fills the
 * depths; each pair then lifts its deeper end to the other's depth and
 * climbs both to their meeting point.  *total receives the sum and
 * series (nullable) the per-pair distances.  Returns 0 on success; 2
 * (touching no output) when an identifier is outside 1..n; 3 when the
 * layout is not a tree on 1..n wired as in repro_tree_validate's
 * invariants 1 and 5, so every climb stays inside the array; 4 when
 * scratch allocation fails. */
int64_t repro_tree_distances(void *handle, const int64_t *sources,
                             const int64_t *targets, int64_t m,
                             int64_t *series, int64_t *total)
{
    rk_tree *t = (rk_tree *)handle;
    const int64_t n = t->n, k = t->k, root = t->root;
    const int64_t *parent = t->parent, *children = t->children;
    for (int64_t i = 0; i < m; i++) {
        const int64_t u = sources[i], v = targets[i];
        if (u < 1 || u > n || v < 1 || v > n)
            return 2;
    }
    if (root < 1 || root > n || parent[root] != 0)
        return 3;
    int64_t *depth = (int64_t *)malloc((size_t)(n + 1) * 2 * sizeof(int64_t));
    if (!depth)
        return 4;
    int64_t *stack = depth + n + 1;
    for (int64_t x = 0; x <= n; x++)
        depth[x] = -1;
    depth[root] = 0;
    stack[0] = root;
    int64_t top = 1, seen = 0;
    while (top) {
        const int64_t x = stack[--top];
        seen++;
        for (int64_t s = 0; s < k; s++) {
            const int64_t c = children[x * k + s];
            if (!c)
                continue;
            if (c < 1 || c > n || parent[c] != x || depth[c] >= 0) {
                free(depth);
                return 3;
            }
            depth[c] = depth[x] + 1;
            stack[top++] = c;
        }
    }
    if (seen != n) {
        free(depth);
        return 3;
    }
    int64_t sum = 0;
    for (int64_t i = 0; i < m; i++) {
        int64_t a = sources[i], b = targets[i];
        int64_t da = depth[a], db = depth[b];
        const int64_t span = da + db;
        for (; da > db; da--)
            a = parent[a];
        for (; db > da; db--)
            b = parent[b];
        while (a != b) {
            a = parent[a];
            b = parent[b];
            da--;
        }
        const int64_t d = span - 2 * da;
        sum += d;
        if (series)
            series[i] = d;
    }
    free(depth);
    *total = sum;
    return 0;
}
