/* Compiled cycle kernel: the canonical cycle DFS on hypercube direction masks.
 *
 * Loaded with ctypes by _cycles_c.py; _cycles_py.py is the pure twin and
 * states the contract both keep. Bit p of masks[v] is set iff the edge
 * {v, v ^ (1 << p)} is present. The caller owns every buffer: path and iters
 * hold `length` entries, in_path holds nv zeroed bytes, *nodes starts at 0.
 *
 * Neighbours of cur are visited in ascending vertex order: first the set bits
 * of masks[cur] & cur from high to low (clearing a higher bit gives a smaller
 * neighbour), then those of masks[cur] & ~cur from low to high. iters[d]
 * holds the bits of masks[path[d]] not visited yet.
 */
#include <stdint.h>

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
