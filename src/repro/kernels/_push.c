/* Compiled forward-push kernel: one frontier iteration per call.
 *
 * This is the scalar-C twin of repro/core/push_vectorized.py. It must stay
 * BIT-IDENTICAL to the numpy engine, which constrains every line:
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
 *  - "before" values are captured at a vertex's first touch within a chunk,
 *    which is the value numpy snapshots for the whole chunk (no add can have
 *    reached the vertex earlier in the same chunk);
 *  - compile with -ffp-contract=off: a fused multiply-add would round once
 *    where numpy rounds twice.
 *
 * The caller (repro/kernels/compiled.py) keeps every side effect that numpy
 * computes with array reductions -- p/r frontier self-updates, residual-mass
 * sums, the second eager pass -- in numpy, so summation order there is
 * untouched. The kernel only propagates increments and emits next-frontier
 * candidates; candidate ORDER may differ from numpy (first-touch vs sorted),
 * which is erased by the caller's np.sort, exactly as in the numpy engine.
 *
 * Scratch contract: touch_stamp persists across calls (init -1, paired with
 * the monotone token in token_io); dense_acc, enqueued_mask and current_mask
 * must be all-zero at entry and are re-zeroed before returning (O(touched),
 * not O(capacity)).
 */

#include <stdint.h>

#define REPRO_KERNEL_ABI 2

int64_t repro_kernel_abi(void) { return REPRO_KERNEL_ABI; }

/* The paper's pushCond for both phases: sign=+1 tests v > eps (POS),
 * sign=-1 tests v < -eps (NEG). Multiplying by +-1.0 is exact. */
static int pushes(double value, double sign, double epsilon) {
    return sign * value > epsilon;
}

int64_t repro_push_iteration(
    double *r,
    int64_t rcap,
    int64_t nrows,
    const int64_t *row_start,
    const int64_t *row_count,
    const uint8_t *row_overlay,
    const int64_t *base_indices,
    const int64_t *overlay_indices,
    const int64_t *dout,
    const int64_t *frontier,
    int64_t frontier_len,
    double one_minus_alpha,
    double epsilon,
    double sign,
    int64_t eager,
    int64_t local_detect,
    int64_t chunk_width,
    int64_t bincount_threshold,
    double *weights,        /* [frontier_len] in (snapshot) / out (eager) */
    int64_t *touch_stamp,   /* [rcap] persistent, init -1 */
    double *before_val,     /* [rcap] */
    double *dense_acc,      /* [rcap] all zeros at entry and exit */
    uint8_t *enqueued_mask, /* [rcap] zeros at entry and exit */
    uint8_t *current_mask,  /* [rcap] zeros at entry and exit */
    int64_t *touched_buf,   /* [rcap] */
    int64_t *out_next,      /* [rcap] next-frontier candidates (unsorted) */
    int64_t *counters,      /* [4] traversals, adds, attempts, dedup checks */
    int64_t *token_io       /* [1] persistent monotone chunk token */
) {
    int64_t n_out = 0;
    int use_current = (eager != 0) && (local_detect == 0);
    int64_t dense_floor = bincount_threshold > rcap ? bincount_threshold : rcap;
    int64_t start, i, j, k;

    if (chunk_width < 1) chunk_width = 1;
    if (use_current) {
        for (i = 0; i < frontier_len; i++) current_mask[frontier[i]] = 1;
    }

    for (start = 0; start < frontier_len; start += chunk_width) {
        int64_t len = frontier_len - start;
        const int64_t *chunk = frontier + start;
        double *w = weights + start;
        int64_t chunk_edges = 0;
        int64_t ntouched = 0;
        int64_t attempts = 0;
        int64_t tok;
        int use_dense;

        if (len > chunk_width) len = chunk_width;
        if (eager) { /* chunk-wide simultaneous reads (Algorithm 4) */
            for (i = 0; i < len; i++) w[i] = r[chunk[i]];
        }
        for (i = 0; i < len; i++) {
            if (chunk[i] < nrows) chunk_edges += row_count[chunk[i]];
        }
        if (chunk_edges == 0) continue;

        tok = ++token_io[0];
        use_dense = chunk_edges > dense_floor;
        for (i = 0; i < len; i++) {
            int64_t f = chunk[i];
            int64_t cnt;
            const int64_t *idx;
            double scaled;
            if (f >= nrows) continue;
            cnt = row_count[f];
            if (cnt == 0) continue;
            idx = (row_overlay[f] ? overlay_indices : base_indices) + row_start[f];
            scaled = one_minus_alpha * w[i];
            for (j = 0; j < cnt; j++) {
                int64_t t = idx[j];
                double inc = scaled / (double)dout[t];
                if (touch_stamp[t] != tok) {
                    touch_stamp[t] = tok;
                    before_val[t] = r[t];
                    touched_buf[ntouched++] = t;
                }
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
        counters[0] += chunk_edges;
        counters[1] += chunk_edges;

        /* Attempts: adds landing on vertices whose post-chunk value passes
         * (the numpy engine's documented accounting approximation). */
        for (i = 0; i < len; i++) {
            int64_t f = chunk[i];
            int64_t cnt;
            const int64_t *idx;
            if (f >= nrows) continue;
            cnt = row_count[f];
            idx = (row_overlay[f] ? overlay_indices : base_indices) + row_start[f];
            for (j = 0; j < cnt; j++) {
                if (pushes(r[idx[j]], sign, epsilon)) attempts++;
            }
        }
        counters[2] += attempts;

        if (local_detect) {
            /* Monotonicity within a phase: the threshold crossing is seen
             * by exactly one chunk, so emissions are disjoint across
             * chunks and n_out never exceeds rcap. */
            for (k = 0; k < ntouched; k++) {
                int64_t t = touched_buf[k];
                if (!pushes(before_val[t], sign, epsilon) &&
                    pushes(r[t], sign, epsilon)) {
                    out_next[n_out++] = t;
                }
            }
        } else {
            counters[3] += attempts;
            for (k = 0; k < ntouched; k++) {
                int64_t t = touched_buf[k];
                if (!pushes(r[t], sign, epsilon)) continue;
                if (use_current && current_mask[t]) continue;
                if (enqueued_mask[t]) continue;
                enqueued_mask[t] = 1;
                out_next[n_out++] = t;
            }
        }
    }

    if (use_current) {
        for (i = 0; i < frontier_len; i++) current_mask[frontier[i]] = 0;
    }
    if (!local_detect) {
        for (k = 0; k < n_out; k++) enqueued_mask[out_next[k]] = 0;
    }
    return n_out;
}

/* Batch RestoreInvariant (Algorithm 1, k times) for ONE state: the scalar-C
 * twin of repro.core.invariant.restore_invariant looped over a batch whose
 * graph mutations were already applied and recorded (u, v, op, and u's
 * out-degree right after each update). Updates run sequentially -- a later
 * update of the same u reads the r[u] an earlier one wrote -- and every
 * expression keeps the oracle's operand order, including the `+ indicator`
 * add of 0.0 and the dangling branch (dout_after == 0: Eq. 2 pins r[u]).
 * The caller has already grown p/r to cover every id, replaying the
 * oracle's ensure_capacity sequence. delta_out[j] is the signed residual
 * change of update j (Lemma 3's Delta_s(u) contribution).
 */
void repro_restore_batch(
    const double *p,
    double *r,
    int64_t source,
    double alpha,
    const int64_t *u,
    const int64_t *v,
    const int64_t *op,          /* +1 insert, -1 delete */
    const int64_t *dout_after,
    int64_t count,
    double *delta_out           /* [count] */
) {
    int64_t j;
    for (j = 0; j < count; j++) {
        int64_t uu = u[j];
        double indicator = (uu == source) ? alpha : 0.0;
        double delta;
        if (dout_after[j] == 0) {
            double new_r = (indicator - p[uu]) / alpha;
            delta = new_r - r[uu];
            r[uu] = new_r;
        } else {
            double numerator =
                (1.0 - alpha) * p[v[j]] - p[uu] - alpha * r[uu] + indicator;
            delta = (double)op[j] * numerator / (alpha * (double)dout_after[j]);
            r[uu] += delta;
        }
        delta_out[j] = delta;
    }
}
