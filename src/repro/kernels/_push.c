/* Compiled forward-push kernel: one whole sign phase per call.
 *
 * This is the scalar-C twin of repro/core/push_vectorized.py::vectorized_phase.
 * It must stay BIT-IDENTICAL to the numpy engine, which constrains every line:
 *
 *  - increments are computed per edge as (one_minus_alpha * w) / (double)dout
 *    -- two rounding steps in that exact order, like numpy's
 *    `(1.0 - alpha) * weights[src_idx] / dout[targets]`;
 *  - the accumulation branch mirrors _scatter_add's crossover: a chunk with
 *    more edge traversals than max(bincount_threshold, rcap) accumulates into
 *    a zeroed dense buffer and then adds the WHOLE buffer back (numpy's
 *    `r += np.bincount(...)` adds +0.0 to every untouched slot, normalizing
 *    -0.0 residuals to +0.0 -- the full-capacity loop reproduces that);
 *    smaller chunks fold each increment straight into r in edge order,
 *    matching unbuffered np.add.at;
 *  - whether a vertex passed pushCond "before" is captured at its first touch
 *    within a chunk, which is the value numpy snapshots for the whole chunk
 *    (no add can have reached the vertex earlier in the same chunk);
 *  - frontier self-updates are per-vertex `p[f] += alpha * w` (multiply, then
 *    add) and `r[f] = 0.0` (snapshot variants, before propagation) or
 *    `r[f] -= w` (eager variants, after it, w being the chunk-wide read);
 *    frontier ids are unique, so numpy's fancy-indexed `+=` is the same
 *    per-vertex arithmetic;
 *  - compile with -ffp-contract=off: a fused multiply-add would round once
 *    where numpy rounds twice.
 *
 * One call runs iterations until the frontier is exhausted, the iteration
 * budget (the caller's max_iterations guard) is spent, or max_rows rows are
 * written; the caller (repro/kernels/compiled.py) builds one IterationRecord
 * per row and resumes from the frontier left in place. The caller checks
 * that every frontier id addresses a row and that p/r cover every row; later
 * frontiers hold only in-neighbors and reactivated members, so the kernel
 * indexes unchecked. `residual_pushed` is the one field that is NOT
 * bit-identical: it is summed here in frontier order where numpy sums
 * pairwise; it is reported, never compared or fed back. Candidate ORDER
 * within an iteration differs from numpy (first-touch vs sorted); the
 * ascending sort that closes every iteration erases it, exactly as np.sort
 * does in the numpy engine. `enqueue_attempts` -- adds landing on vertices
 * whose post-chunk value passes -- is the per-vertex touch count summed over
 * the passing touched vertices, the oracle's `passing_mask[targets].sum()`.
 *
 * Scratch contract: touch_count, dense_acc, enqueued_mask and current_mask
 * must be all-zero at entry and are re-zeroed before returning (O(touched),
 * not O(capacity)).
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_KERNEL_ABI 5

/* Columns of one per-iteration row; keep in lockstep with compiled.py. */
enum {
    ROW_FRONTIER, ROW_TRAVERSALS, ROW_ADDS, ROW_ATTEMPTS, ROW_DEDUP,
    ROW_ENQUEUED, ROW_SECOND_PASS, ROW_WIDTH
};

int64_t repro_kernel_abi(void) { return REPRO_KERNEL_ABI; }

/* Set in a vertex's touch count when it passed pushCond at its first touch. */
#define PASSED_BEFORE ((int64_t)1 << 62)

/* The paper's pushCond for both phases: sign=+1 tests v > eps (POS),
 * sign=-1 tests v < -eps (NEG). Multiplying by +-1.0 is exact. */
static int pushes(double value, double sign, double epsilon) {
    return sign * value > epsilon;
}

/* Ascending sort of n distinct ids below `bound`: insertion sort for the
 * short frontiers of a refresh push, LSD byte radix (as many passes as
 * `bound` has bytes) otherwise. tmp holds n entries. */
static void sort_ids(int64_t *ids, int64_t n, int64_t bound, int64_t *tmp) {
    int64_t i, j, shift;
    if (n <= 32) {
        for (i = 1; i < n; i++) {
            int64_t v = ids[i];
            for (j = i; j > 0 && ids[j - 1] > v; j--) ids[j] = ids[j - 1];
            ids[j] = v;
        }
        return;
    }
    for (shift = 0; shift < 64 && ((bound - 1) >> shift) != 0; shift += 16) {
        int64_t count[256], *src = ids, *dst = tmp, pass;
        for (pass = 0; pass < 2; pass++) { /* two passes: result back in ids */
            int64_t s = shift + 8 * pass, total = 0;
            memset(count, 0, sizeof count);
            for (i = 0; i < n; i++) count[(src[i] >> s) & 255]++;
            for (i = 0; i < 256; i++) {
                int64_t c = count[i];
                count[i] = total;
                total += c;
            }
            for (i = 0; i < n; i++) dst[count[(src[i] >> s) & 255]++] = src[i];
            src = dst;
            dst = (dst == tmp) ? ids : tmp;
        }
    }
}

int64_t repro_push_phase(
    double *p,
    double *r,
    int64_t rcap,
    const int64_t *row_start,
    const int64_t *row_count,
    const uint8_t *row_overlay,
    const int64_t *base_indices,
    const int64_t *overlay_indices,
    const int64_t *dout,
    double alpha,
    double one_minus_alpha,
    double epsilon,
    double sign,
    int64_t eager,
    int64_t local_detect,
    int64_t workers,            /* eager chunk width */
    int64_t bincount_threshold,
    int64_t budget,             /* iterations this call may run */
    int64_t max_rows,           /* iterations `rows`/`pushed` can hold */
    int64_t *frontier,      /* [rcap + 1] in: sorted frontier; out: what is left */
    int64_t *next,          /* [rcap + 1] (+1: emission stores before it counts) */
    int64_t *touch_count,   /* [rcap] zeros at entry and exit */
    double *dense_acc,      /* [rcap] all zeros at entry and exit */
    uint8_t *enqueued_mask, /* [rcap] zeros at entry and exit */
    uint8_t *current_mask,  /* [rcap] zeros at entry and exit */
    int64_t *touched_buf,   /* [rcap] */
    double *weight,         /* [rcap] the iteration's pushed weights */
    int64_t *rows,          /* [max_rows][ROW_WIDTH] out */
    double *pushed,         /* [max_rows] out: sum |w| per iteration */
    int64_t *frontier_len_io /* [1] */
) {
    int use_current = (eager != 0) && (local_detect == 0);
    int64_t dense_floor = bincount_threshold > rcap ? bincount_threshold : rcap;
    int64_t *front = frontier;
    int64_t frontier_len = *frontier_len_io;
    int64_t done = 0;
    int64_t start, i, j, k;

    if (workers < 1) workers = 1;
    if (budget > max_rows) budget = max_rows;

    while (frontier_len > 0 && done < budget) {
        int64_t *row = rows + ROW_WIDTH * done;
        double mass = 0.0;
        int64_t chunk_width = eager ? workers : frontier_len;
        int64_t n_out = 0;

        memset(row, 0, ROW_WIDTH * sizeof *row);
        row[ROW_FRONTIER] = frontier_len;
        if (!eager) { /* Algorithm 3: snapshot, self-update, then propagate */
            for (i = 0; i < frontier_len; i++) {
                int64_t f = front[i];
                weight[i] = r[f];
                p[f] += alpha * weight[i];
                r[f] = 0.0;
            }
        }
        if (use_current) {
            for (i = 0; i < frontier_len; i++) current_mask[front[i]] = 1;
        }

        for (start = 0; start < frontier_len; start += chunk_width) {
            int64_t len = frontier_len - start;
            const int64_t *chunk = front + start;
            double *w = weight + start;
            int64_t chunk_edges = 0;
            int64_t ntouched = 0;
            int64_t attempts = 0;
            int use_dense;

            if (len > chunk_width) len = chunk_width;
            if (eager) { /* chunk-wide simultaneous reads (Algorithm 4) */
                for (i = 0; i < len; i++) w[i] = r[chunk[i]];
            }
            for (i = 0; i < len; i++) chunk_edges += row_count[chunk[i]];
            if (chunk_edges == 0) continue;

            use_dense = chunk_edges > dense_floor;
            for (i = 0; i < len; i++) {
                int64_t f = chunk[i];
                int64_t cnt = row_count[f];
                const int64_t *idx =
                    (row_overlay[f] ? overlay_indices : base_indices) +
                    row_start[f];
                double scaled = one_minus_alpha * w[i];
                for (j = 0; j < cnt; j++) {
                    int64_t t = idx[j];
                    double inc = scaled / (double)dout[t];
                    int64_t touches = touch_count[t];
                    if (touches == 0) { /* first touch within the chunk */
                        touched_buf[ntouched++] = t;
                        if (pushes(r[t], sign, epsilon)) touches = PASSED_BEFORE;
                    }
                    touch_count[t] = touches + 1;
                    if (use_dense) {
                        dense_acc[t] += inc;
                    } else {
                        r[t] += inc;
                    }
                }
            }
            if (use_dense) {
                for (i = 0; i < rcap; i++) r[i] += dense_acc[i];
                for (k = 0; k < ntouched; k++) dense_acc[touched_buf[k]] = 0.0;
            }
            row[ROW_TRAVERSALS] += chunk_edges;
            row[ROW_ADDS] += chunk_edges;

            for (k = 0; k < ntouched; k++) {
                int64_t t = touched_buf[k];
                int64_t touches = touch_count[t];
                int64_t passes = pushes(r[t], sign, epsilon);
                touch_count[t] = 0;
                /* About two in three touched vertices pass and one in eight
                 * crosses: branches on either mispredict, so neither is one
                 * (measured: 1.77 -> 1.25 ms per cold push). */
                attempts += (touches & ~PASSED_BEFORE) & -passes;
                if (local_detect) {
                    /* Monotonicity within a phase: the threshold crossing
                     * is seen by exactly one chunk, so emissions are
                     * disjoint across chunks and n_out never exceeds rcap. */
                    next[n_out] = t;
                    n_out += passes & ~(touches >> 62);
                } else if (passes && !(use_current && current_mask[t]) &&
                           !enqueued_mask[t]) {
                    enqueued_mask[t] = 1;
                    next[n_out++] = t;
                }
            }
            row[ROW_ATTEMPTS] += attempts;
            if (!local_detect) row[ROW_DEDUP] += attempts;
        }

        if (use_current) {
            for (i = 0; i < frontier_len; i++) current_mask[front[i]] = 0;
        }
        if (!local_detect) {
            for (k = 0; k < n_out; k++) enqueued_mask[next[k]] = 0;
        }
        if (eager) { /* Algorithm 4 session 2: self-update, second pass */
            for (i = 0; i < frontier_len; i++) {
                int64_t f = front[i];
                p[f] += alpha * weight[i];
                r[f] -= weight[i];
                if (pushes(r[f], sign, epsilon)) {
                    next[n_out++] = f;
                    row[ROW_SECOND_PASS]++;
                }
            }
        }
        for (i = 0; i < frontier_len; i++) mass += fabs(weight[i]);
        pushed[done] = mass;
        row[ROW_ENQUEUED] = n_out;
        sort_ids(next, n_out, rcap, touched_buf);

        done++;
        frontier_len = n_out;
        {
            int64_t *swap = front;
            front = next;
            next = swap;
        }
    }
    if (front != frontier) {
        memcpy(frontier, front, (size_t)frontier_len * sizeof *front);
    }
    *frontier_len_io = frontier_len;
    return done;
}

/* Batch RestoreInvariant (Algorithm 1, k times) for every state of one
 * ingest, state s being p[s], r[s], source[s] and row s of delta_out: the
 * scalar-C twin of repro.core.invariant.restore_invariant looped over a batch
 * already applied to the graph (batch rows u, v, op; dout_after[j] is u's
 * out-degree right after update j, as repro_graph_apply records it).
 * Updates run sequentially -- a later update of the same u reads the r[u] an
 * earlier one wrote -- and every expression keeps the oracle's operand
 * order, including the `+ indicator` add of 0.0 and the dangling branch
 * (dout_after == 0: Eq. 2 pins r[u]). The caller has already grown every
 * p/r to cover every id, replaying the oracle's ensure_capacity sequence.
 * delta_out[s * count + j] is the signed residual change of update j
 * (Lemma 3's Delta_s(u) contribution).
 */
void repro_restore_states(
    double *const *p,
    double *const *r,
    const int64_t *source,
    int64_t n_states,
    double alpha,
    const int64_t *batch,       /* [count][3]: u, v, op (+1 insert, -1 delete) */
    const int64_t *dout_after,
    int64_t count,
    double *delta_out           /* [n_states * count] */
) {
    int64_t s, j;
    for (s = 0; s < n_states; s++) {
        const double *ps = p[s];
        double *rs = r[s];
        for (j = 0; j < count; j++) {
            int64_t uu = batch[3 * j];
            double indicator = (uu == source[s]) ? alpha : 0.0;
            double delta;
            if (dout_after[j] == 0) {
                double new_r = (indicator - ps[uu]) / alpha;
                delta = new_r - rs[uu];
                rs[uu] = new_r;
            } else {
                double numerator = (1.0 - alpha) * ps[batch[3 * j + 1]] - ps[uu] -
                                   alpha * rs[uu] + indicator;
                delta = (double)batch[3 * j + 2] * numerator /
                        (alpha * (double)dout_after[j]);
                rs[uu] += delta;
            }
            delta_out[s * count + j] = delta;
        }
    }
}

/* The graph of record (repro/graph/digraph.py::DynamicDiGraph), one batch
 * per call. Per vertex id: dout, din, a registration flag; the registration
 * order; per direction a row table of (start, length, slot) triples over a
 * neighbour slab and a multiplicity slab, each row in dict order (insertion
 * order; a neighbour leaves when its multiplicity reaches 0 and is
 * re-appended when it comes back). A full row moves to the end of its slab
 * with room for 2 * length + 1 entries. These are the slab operations
 * DynamicDiGraph._apply_python performs; the two leave identical arrays.
 */

/* meta slots; keep in lockstep with digraph.py. */
enum { G_N, G_MAX, G_EDGES, G_TOP, G_LIVE = G_TOP + 2 };

typedef struct {
    int64_t *table, *nbr, *mult, cap;
} slab_t;

/* Slab index of x in `row`, -1 if absent (or row outside the id space). */
static int64_t row_find(const slab_t *s, int64_t id_cap, int64_t row, int64_t x) {
    const int64_t *t;
    int64_t i;
    if (row < 0 || row >= id_cap) return -1;
    t = s->table + 3 * row;
    for (i = 0; i < t[1]; i++) {
        if (s->nbr[t[0] + i] == x) return t[0] + i;
    }
    return -1;
}

/* Slab entries an append to `row` needs at the slab's end (0: fits). */
static int64_t row_room(const slab_t *s, int64_t row) {
    const int64_t *t = s->table + 3 * row;
    return t[1] == t[2] ? 2 * t[1] + 1 : 0;
}

static void row_append(slab_t *s, int64_t *meta, int side, int64_t row, int64_t x) {
    int64_t *t = s->table + 3 * row;
    if (t[1] == t[2]) { /* full: move to the end of the slab */
        int64_t top = meta[G_TOP + side];
        memmove(s->nbr + top, s->nbr + t[0], (size_t)t[1] * sizeof *s->nbr);
        memmove(s->mult + top, s->mult + t[0], (size_t)t[1] * sizeof *s->mult);
        t[0] = top;
        t[2] = 2 * t[1] + 1;
        meta[G_TOP + side] = top + t[2];
    }
    s->nbr[t[0] + t[1]] = x;
    s->mult[t[0] + t[1]] = 1;
    t[1]++;
    meta[G_LIVE + side]++;
}

static void row_remove(slab_t *s, int64_t *meta, int side, int64_t row, int64_t pos) {
    int64_t *t = s->table + 3 * row;
    size_t tail = (size_t)(t[0] + t[1] - pos - 1);
    memmove(s->nbr + pos, s->nbr + pos + 1, tail * sizeof *s->nbr);
    memmove(s->mult + pos, s->mult + pos + 1, tail * sizeof *s->mult);
    t[1]--;
    meta[G_LIVE + side]--;
}

static void register_vertex(int64_t *meta, uint8_t *registered, int64_t *order,
                            int64_t u) {
    if (registered[u]) return;
    registered[u] = 1;
    order[meta[G_N]++] = u;
    if (u > meta[G_MAX]) meta[G_MAX] = u;
}

/* Simulate the batch in order against the multiplicities it would see,
 * mutating nothing: an open-addressing table holds each (u, v) pair's
 * running multiplicity. Returns the first failing index (status[0] = it,
 * status[1] = the multiplicity there, or -1 for a negative id in an
 * insert), count when every update is valid, or -2 when out of memory. */
static int64_t validate(const int64_t *batch, int64_t count, const slab_t *out,
                        int64_t id_cap, int64_t *status) {
    int64_t size = 1, mask, j, failed = count;
    int64_t *keys;
    uint8_t *used;
    while (size < 2 * count) size <<= 1;
    mask = size - 1;
    keys = malloc((size_t)size * 3 * sizeof *keys);
    used = calloc((size_t)size, 1);
    if (keys == NULL || used == NULL) {
        free(keys);
        free(used);
        return -2;
    }
    for (j = 0; j < count; j++) {
        int64_t u = batch[3 * j], v = batch[3 * j + 1], op = batch[3 * j + 2];
        uint64_t h = (uint64_t)u * 0x9E3779B97F4A7C15ULL ^
                     (uint64_t)v * 0xC2B2AE3D27D4EB4FULL;
        int64_t slot, *entry;
        if (op == 1 && (u < 0 || v < 0)) {
            status[0] = j;
            status[1] = -1;
            failed = j;
            break;
        }
        for (slot = (int64_t)((h ^ (h >> 29)) & (uint64_t)mask);;
             slot = (slot + 1) & mask) {
            entry = keys + 3 * slot;
            if (!used[slot]) {
                int64_t pos = row_find(out, id_cap, u, v);
                used[slot] = 1;
                entry[0] = u;
                entry[1] = v;
                entry[2] = pos >= 0 ? out->mult[pos] : 0;
                break;
            }
            if (entry[0] == u && entry[1] == v) break;
        }
        if (op == -1 && entry[2] < 1) {
            status[0] = j;
            status[1] = entry[2];
            failed = j;
            break;
        }
        entry[2] += op;
    }
    free(keys);
    free(used);
    return failed == count ? count : -1;
}

/* Apply batch rows [begin, count) of (u, v, op); op is +1 or -1 (checked by
 * the caller, which also sized the per-id arrays for every inserted id and
 * `order` for every registration the batch can make). Called with
 * begin == 0, it first validates the whole batch and mutates nothing when
 * an update is invalid (returns -1, status as validate()). dout_after[j] is
 * u's out-degree right after update j. Returns count when done, or the
 * index of the update a slab has no room for: status[0] is the direction
 * (0 out, 1 in) and status[1] the slab length it needs; the caller grows
 * that slab and resumes from there. */
int64_t repro_graph_apply(
    const int64_t *batch,
    int64_t count,
    int64_t begin,
    int64_t *meta,
    int64_t id_cap,
    int64_t *dout,
    int64_t *din,
    uint8_t *registered,
    int64_t *order,
    int64_t *out_table, int64_t *out_nbr, int64_t *out_mult, int64_t out_cap,
    int64_t *in_table, int64_t *in_nbr, int64_t *in_mult, int64_t in_cap,
    int64_t *dout_after,        /* [count] out */
    int64_t *status             /* [2] out */
) {
    slab_t out = {out_table, out_nbr, out_mult, out_cap};
    slab_t in = {in_table, in_nbr, in_mult, in_cap};
    int64_t j;
    if (begin == 0) {
        int64_t valid = validate(batch, count, &out, id_cap, status);
        if (valid != count) return valid;
    }
    for (j = begin; j < count; j++) {
        int64_t u = batch[3 * j], v = batch[3 * j + 1], op = batch[3 * j + 2];
        int64_t pos = row_find(&out, id_cap, u, v);
        if (pos < 0) { /* a new neighbour: both rows must have room */
            int64_t need_out = row_room(&out, u), need_in = row_room(&in, v);
            if (need_out && meta[G_TOP] + need_out > out.cap) {
                status[0] = 0;
                status[1] = meta[G_TOP] + need_out;
                return j;
            }
            if (need_in && meta[G_TOP + 1] + need_in > in.cap) {
                status[0] = 1;
                status[1] = meta[G_TOP + 1] + need_in;
                return j;
            }
        }
        if (op == 1) {
            register_vertex(meta, registered, order, u);
            register_vertex(meta, registered, order, v);
        }
        if (pos < 0) {
            row_append(&out, meta, 0, u, v);
            row_append(&in, meta, 1, v, u);
        } else {
            int64_t back = row_find(&in, id_cap, v, u);
            if (op == -1 && out.mult[pos] == 1) {
                row_remove(&out, meta, 0, u, pos);
                row_remove(&in, meta, 1, v, back);
            } else {
                out.mult[pos] += op;
                in.mult[back] += op;
            }
        }
        dout[u] += op;
        din[v] += op;
        meta[G_EDGES] += op;
        dout_after[j] = dout[u];
    }
    return count;
}

/* Expanded in-rows of ids[0..n): every row in dict order, each neighbour
 * repeated by its multiplicity, concatenated into flat. Ids outside
 * [0, id_cap) have empty rows. Writes at most flat_cap entries (the caller
 * sizes flat from din) and returns how many the rows hold, -1 if more. */
int64_t repro_graph_in_rows(
    const int64_t *ids,
    int64_t n,
    int64_t id_cap,
    const int64_t *table,
    const int64_t *nbr,
    const int64_t *mult,
    int64_t *flat,
    int64_t flat_cap
) {
    int64_t i, k, c, written = 0;
    for (i = 0; i < n; i++) {
        const int64_t *t;
        if (ids[i] < 0 || ids[i] >= id_cap) continue;
        t = table + 3 * ids[i];
        for (k = t[0]; k < t[0] + t[1]; k++) {
            for (c = 0; c < mult[k]; c++) {
                if (written == flat_cap) return -1;
                flat[written++] = nbr[k];
            }
        }
    }
    return written;
}
