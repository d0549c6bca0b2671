/* Compiled kernels: the canonical cycle DFS on hypercube direction masks, the
 * branch-and-bound of the exact extremal search and the z word count.
 *
 * One library, loaded with ctypes by _cycles_c.py. The pure twins in
 * _cycles_py.py, under the names of the bindings, state the contracts both
 * keep. The caller owns every buffer passed in.
 *
 * cycle_dfs: bit p of masks[v] is set iff the edge {v, v ^ (1 << p)} is
 * present. path and iters hold `length` entries, in_path holds nv zeroed
 * bytes, *nodes starts at 0. Neighbours of cur are visited in ascending vertex
 * order: first the set bits of masks[cur] & cur from high to low (clearing a
 * higher bit gives a smaller neighbour), then those of masks[cur] & ~cur from
 * low to high. iters[d] holds the bits of masks[path[d]] not visited yet.
 */
#define _POSIX_C_SOURCE 199309L /* clock_gettime under strict -std= modes too */
#include <stdint.h>
#include <stdlib.h>
#include <time.h>

long long cycle_dfs(const uint32_t *masks, int nv, int length, int start, int step,
                    int first, int *path, uint32_t *iters, unsigned char *in_path,
                    long long *nodes)
{
    const int last = length - 1;
    long long found = 0;
    for (int s = start; s < nv; s += step) {
        if (__builtin_popcount(masks[s]) < 2)
            continue;
        ++*nodes;
        path[0] = s;
        iters[0] = masks[s];
        in_path[s] = 1;
        int d = 0;
        while (d >= 0) {
            int cur = path[d];
            uint32_t rest = iters[d];
            if (rest == 0) {
                in_path[cur] = 0;
                --d;
                continue;
            }
            uint32_t down = rest & (uint32_t)cur;
            uint32_t bit = down ? (uint32_t)1 << (31 - __builtin_clz(down)) : rest & -rest;
            iters[d] = rest ^ bit;
            int w = cur ^ (int)bit;
            ++*nodes;
            if (w <= s || in_path[w])
                continue;
            /* a return walk needs at least popcount(w ^ s) more edges */
            if (__builtin_popcount((uint32_t)(w ^ s)) > length - d - 1)
                continue;
            if (d + 1 == last) {
                /* w ^ s is one bit here, so this tests the closing edge */
                if (w > path[1] && (masks[w] & (uint32_t)(w ^ s))) {
                    ++found;
                    if (first) {
                        path[last] = w;
                        return found;
                    }
                }
                continue;
            }
            path[++d] = w;
            iters[d] = masks[w];
            in_path[w] = 1;
        }
    }
    return found;
}

/* bb_search: the most target copies a kept edge set can hold while every
 * forbidden copy loses an edge (nf >= 1), searched node for node as
 * _cycles_py.bb_search_kernel states. Edge sets are masks over ne <= 128
 * edges, passed as (low, high) uint64 pairs.
 */
typedef unsigned __int128 mask_t;

struct bb {
    const mask_t *t, *f;
    int nt, nf;
    mask_t all, best_kept;
    long long best, nodes, budget_nodes;
    int timed, spent;
    double deadline;
};

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* 0 at a dead end; otherwise *deleted gains every forced deletion */
static int propagate(const struct bb *s, mask_t kept, mask_t *deleted)
{
    mask_t del = *deleted;
    int changed = 1;
    while (changed) {
        changed = 0;
        for (int i = 0; i < s->nf; i++) {
            mask_t f = s->f[i];
            if (f & del)
                continue;
            mask_t und = f & ~kept;
            if (!und)
                return 0;
            if (!(und & (und - 1))) {
                del |= und;
                changed = 1;
            }
        }
    }
    *deleted = del;
    return 1;
}

static void dfs(struct bb *s, mask_t kept, mask_t deleted)
{
    ++s->nodes;
    /* the clock is read at node 1 and every 2^12 nodes after */
    s->spent = s->nodes > s->budget_nodes ? 1
             : s->timed && (s->nodes == 1 || !(s->nodes & 4095)) && now() >= s->deadline ? 2 : 0;
    if (s->spent)
        return;
    if (!propagate(s, kept, &deleted))
        return;
    long long ub = 0;
    for (int i = 0; i < s->nt; i++)
        ub += !(s->t[i] & deleted);
    if (ub <= s->best)
        return;
    int i = 0;
    while (i < s->nf && (s->f[i] & deleted))
        i++;
    if (i == s->nf) {
        /* every forbidden copy is broken: keeping all undecided edges is optimal here */
        s->best = ub;
        s->best_kept = s->all & ~deleted;
        return;
    }
    mask_t und = s->f[i] & ~kept, acc = kept;
    while (und) {
        mask_t bit = und & -und;
        und ^= bit;
        dfs(s, acc, deleted | bit);
        if (s->spent)
            return;
        acc |= bit;
    }
}

/* Copies n (low, high) pairs into a new mask array, NULL if out of memory. */
static mask_t *unpack(const uint64_t *pairs, int n)
{
    mask_t *m = malloc((n ? n : 1) * sizeof *m);
    for (int i = 0; m && i < n; i++)
        m[i] = (mask_t)pairs[2 * i + 1] << 64 | pairs[2 * i];
    return m;
}

/* Returns 0 when the search is complete, 1 or 2 when the node or the time
 * budget ran out (node budget_nodes + 1 is the one refused), -1 when out of
 * memory. out receives {value, nodes}, the value being the incumbent (-1 for
 * none) on a budget stop; kept receives the (low, high) pair of an optimal
 * kept set. */
int bb_search(int ne, const uint64_t *tmasks, int nt, const uint64_t *fmasks, int nf,
              long long budget_nodes, int timed, double budget_seconds,
              long long *out, uint64_t *kept)
{
    struct bb s = {0};
    mask_t *t = unpack(tmasks, nt), *f = unpack(fmasks, nf);
    if (!t || !f) {
        free(t);
        free(f);
        return -1;
    }
    s.t = t;
    s.f = f;
    s.nt = nt;
    s.nf = nf;
    s.all = ne >= 128 ? ~(mask_t)0 : ((mask_t)1 << ne) - 1;
    s.best = -1;
    s.budget_nodes = budget_nodes;
    s.timed = timed;
    if (timed)
        s.deadline = now() + budget_seconds;
    /* Q_n is edge-transitive and Q_n itself is infeasible here, so some
     * optimal solution deletes the first edge in the fixed order */
    dfs(&s, 0, 1);
    free(t);
    free(f);
    out[0] = s.best;
    out[1] = s.nodes;
    kept[0] = (uint64_t)s.best_kept;
    kept[1] = (uint64_t)(s.best_kept >> 64);
    return s.spent;
}

/* count_words: the first-occurrence-canonical star words of 2l-cycles in Q_k
 * that use all k symbols, counted as _cycles_py.count_words_kernel states.
 * seen holds 2^k zeroed bytes, one per prefix mask, and is zeroed again on
 * return; words() recurses once per letter, at most min(2l, 2^k) deep, since
 * the masks on one branch are distinct.
 *
 * The count cannot overflow in any run that ends: each word counted is one
 * leaf visited, and no run visits 2^63 of them.
 */
static long long words(int k, int left, uint32_t mask, int used, unsigned char *seen)
{
    /* Closing takes popcount(mask) letters and each unused symbol two; with
     * one letter left, that forces a single-bit mask, all k symbols used and
     * the last letter, so the word is counted without placing it. */
    --left;
    const int slack = left - 2 * (k - used);
    long long total = 0;
    /* the used symbols, then the next new one (s == used), which flips a
     * clear bit and leaves one fewer symbol unused */
    for (int s = 0; s <= used && s < k; s++) {
        uint32_t nm = mask ^ (uint32_t)1 << s;
        if (seen[nm] || __builtin_popcount(nm) > slack + 2 * (s == used))
            continue;
        if (left == 1) {
            ++total;
            continue;
        }
        seen[nm] = 1;
        total += words(k, left, nm, used + (s == used), seen);
        seen[nm] = 0;
    }
    return total;
}

long long count_words(int k, int ell, unsigned char *seen)
{
    seen[0] = 1;
    long long total = words(k, 2 * ell, 0, 0, seen);
    seen[0] = 0;
    return total;
}
