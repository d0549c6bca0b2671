/* Compiled kernels: the canonical cycle DFS on hypercube direction masks, the
 * branch-and-bound of the exact extremal search, the z word count, and the
 * reader and writer of edge-file bodies.
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

/* Sorts count keys below 2^bits ascending: an LSD radix sort, one pass per 8
 * bits, through a scratch copy. Returns 0, or -1 when out of memory. */
static int sort_keys(uint64_t *keys, size_t count, int bits)
{
    uint64_t *tmp = malloc((count ? count : 1) * sizeof *tmp);
    if (!tmp)
        return -1;
    uint64_t *src = keys, *dst = tmp;
    for (int shift = 0; shift < bits; shift += 8) {
        size_t at[257] = {0};
        for (size_t i = 0; i < count; i++)
            ++at[(src[i] >> shift & 255) + 1];
        for (int d = 0; d < 256; d++)
            at[d + 1] += at[d];
        for (size_t i = 0; i < count; i++)
            dst[at[src[i] >> shift & 255]++] = src[i];
        uint64_t *t = src;
        src = dst;
        dst = t;
    }
    if (src != keys)
        for (size_t i = 0; i < count; i++)
            keys[i] = src[i];
    free(tmp);
    return 0;
}

/* read_edges: the (vertex, direction mask) pairs of an edge-file body (the
 * text after the header line) as save_subgraph writes it: leading '#' lines of
 * ASCII bytes other than '\r', then lines of exactly n bytes over "01*" with
 * one star, each ending in '\n', and no edge twice. Position p is byte p of a
 * line and bit p of a vertex. verts and masks hold two entries (the
 * endpoints) per line, up to the n * 2^(n-1) edges of Q_n, past which some
 * edge is given twice; the pairs go there in ascending vertex order.
 *
 * Returns the number of pairs; -1 for any other body, which the caller's
 * per-line reader then reads and refuses with its errors; -2 when out of
 * memory. Each edge gives a key (endpoint << 5 | position) per endpoint, and
 * after the sort an edge given twice is a key repeated.
 */
long long read_edges(const char *body, long long len, int n, uint32_t *verts, uint32_t *masks)
{
    long long i = 0;
    while (i < len && body[i] == '#') {
        for (; i < len && body[i] != '\n'; i++)
            if ((unsigned char)body[i] >= 0x80 || body[i] == '\r')
                return -1;
        if (i++ == len)
            return -1;
    }
    if (n < 1 || n > 31 || (len - i) % (n + 1))
        return -1;
    size_t ne = (size_t)((len - i) / (n + 1));
    if (ne > (size_t)n << (n - 1))
        return -1;
    uint64_t *keys = malloc((ne ? 2 * ne : 1) * sizeof *keys);
    if (!keys)
        return -2;
    for (size_t e = 0; e < ne; e++) {
        const char *line = body + i + e * (size_t)(n + 1);
        uint64_t v = 0;
        int star = -1;
        for (int p = 0; p < n; p++) {
            char c = line[p];
            if (c == '1')
                v |= (uint64_t)1 << p;
            else if (c == '*' && star < 0)
                star = p;
            else if (c != '0')
                star = n;  /* a second star or another byte: refused below */
        }
        if (star < 0 || star == n || line[n] != '\n') {
            free(keys);
            return -1;
        }
        keys[2 * e] = v << 5 | (uint64_t)star;
        keys[2 * e + 1] = (v | (uint64_t)1 << star) << 5 | (uint64_t)star;
    }
    if (sort_keys(keys, 2 * ne, n + 5)) {
        free(keys);
        return -2;
    }
    long long count = 0;
    for (size_t j = 0; j < 2 * ne; j++) {
        if (j && keys[j] == keys[j - 1]) {
            free(keys);
            return -1;
        }
        uint32_t v = (uint32_t)(keys[j] >> 5), bit = (uint32_t)1 << (keys[j] & 31);
        if (count && verts[count - 1] == v) {
            masks[count - 1] |= bit;
        } else {
            verts[count] = v;
            masks[count++] = bit;
        }
    }
    free(keys);
    return count;
}

/* write_edges: the edges of nv (vertex, direction mask) pairs, each listed by
 * both endpoints, as lines of n bytes over "01*" and '\n', in lexicographic
 * order ('*' < '0' < '1'). An edge is the key with digit 0, 1 or 2 ('*', '0',
 * '1') for position p at bits 2(n-1-p), so keys sort as their lines do.
 *
 * Returns the number of bytes the lines take, and writes them to out only
 * when cap is at least that; -1 when out of memory.
 */
long long write_edges(int n, const uint32_t *verts, const uint32_t *masks, long long nv,
                      char *out, long long cap)
{
    size_t ne = 0;
    for (long long i = 0; i < nv; i++)
        ne += (size_t)__builtin_popcount(masks[i] & ~verts[i]);
    long long size = (long long)ne * (n + 1);
    if (!out || cap < size)
        return size;
    uint64_t *keys = malloc((ne ? ne : 1) * sizeof *keys);
    if (!keys)
        return -1;
    uint64_t zeros = 0;
    for (int p = 0; p < n; p++)
        zeros |= (uint64_t)1 << 2 * (n - 1 - p);
    size_t k = 0;
    for (long long i = 0; i < nv; i++) {
        uint64_t key = zeros;
        for (uint32_t bits = verts[i]; bits; bits &= bits - 1)
            key += (uint64_t)1 << 2 * (n - 1 - __builtin_ctz(bits));
        for (uint32_t up = masks[i] & ~verts[i]; up; up &= up - 1)
            keys[k++] = key - ((uint64_t)1 << 2 * (n - 1 - __builtin_ctz(up)));
    }
    if (sort_keys(keys, ne, 2 * n)) {
        free(keys);
        return -1;
    }
    for (size_t e = 0; e < ne; e++) {
        for (int p = 0; p < n; p++)
            *out++ = "*01"[keys[e] >> 2 * (n - 1 - p) & 3];
        *out++ = '\n';
    }
    free(keys);
    return size;
}
