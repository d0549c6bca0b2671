"""Words encoding the star lists of cycles that use every coordinate.

Z(l) is the set of words of length 2l over symbols {1..l} where every symbol
appears exactly twice and no contiguous window of size 2k (k < l) contains
each symbol an even number of times.  |Z(l)| * 2^l / 4l counts the 2l-cycles
of Q_l that use all l star positions.

The window condition reduces to prefix parity masks: a window [a, a+2k) is
all-even exactly when the parity masks after a and after a+2k symbols agree.
So a valid word is one whose prefix masks are pairwise distinct within each
index-parity class, except for the full word (mask 0 at both ends).

Off the diagonal, a closed walk in Q_k with star word w is a 2l-cycle using
all k positions iff w uses all k symbols, m_0..m_{2l-1} are pairwise distinct
and m_{2l} = 0; a cycle is 4l such walks, so z_{k,l} = #words * 2^k / 4l.

Every z value is z_kl's scaled count_canonical_words; z_ll_via_words is its
diagonal. The listing iter_z_words is a separate DFS, an oracle for |Z(l)|.
"""

from __future__ import annotations

import math
from typing import Iterator

from ._kernels import count_words_kernel
from .errors import BadRange, EnumerationTooLarge, NonIntegralResult

#: the word count has no work budget; it recurses once per letter, 2l deep, and
#: its work grows factorially in k: the C kernel takes 2.7 s on z(8,9) and 240 s
#: on z(8,10), so no run beyond these bounds finishes
MAX_WORD_K = 12
MAX_WORD_L = 256

#: Z(l) is listed in full only up to here: `zwords --l 6` holds all 2,037,600
#: words at once (about 2.4 GB, and 244 MB of JSON), and |Z(7)| is 95 times more
MAX_LISTED_L = 6


def _check_z_args(k: int, ell: int) -> None:
    if k < 1 or ell < 2:
        raise BadRange(f"need k >= 1 and l >= 2, got k={k}, l={ell}")


def min_star_count(ell: int) -> int:
    """Least k such that Q_k can host a 2l-cycle: ceil(log2(2l))."""
    return (2 * ell - 1).bit_length()


def z_positive(k: int, ell: int) -> bool:
    """z_{k,l} > 0 exactly for l >= 2 and ceil(log2(2l)) <= k <= l (so k >= 2):
    the only keys a z-table stores, and outside them z_kl returns 0 or refuses."""
    return ell >= 2 and min_star_count(ell) <= k <= ell


def count_canonical_words(k: int, ell: int) -> int:
    """Star words of 2l-cycles in Q_k using all k symbols, in first-occurrence
    canonical form; relabeling acts freely, so k! times this counts all words.

    Every z route counts here, so this is the one z refusal: k > 12 or l > 256.
    """
    if k > MAX_WORD_K or ell > MAX_WORD_L:
        raise EnumerationTooLarge(
            f"word count refused for k={k}, l={ell}: needs k <= {MAX_WORD_K}, l <= {MAX_WORD_L}")
    return count_words_kernel(k, ell)


def iter_z_words(ell: int) -> Iterator[tuple[int, ...]]:
    """All of Z(l), lexicographically. |Z(l)| grows factorially, so l > 6 is refused."""
    _check_z_args(ell, ell)
    if ell > MAX_LISTED_L:
        raise EnumerationTooLarge(f"listing Z({ell}) refused: needs l <= {MAX_LISTED_L}")
    L = 2 * ell
    word = [0] * L
    counts = [0] * (ell + 1)
    seen = {0}  # prefix masks; those of even and odd prefixes never coincide

    def rec(pos: int, pmask: int) -> Iterator[tuple[int, ...]]:
        if pos == L - 1:  # the one symbol seen once closes the word
            word[pos] = pmask.bit_length() - 1
            yield tuple(word)
            return
        for s in range(1, ell + 1):
            nm = pmask ^ (1 << s)
            if counts[s] == 2 or nm in seen:
                continue
            seen.add(nm)
            word[pos] = s
            counts[s] += 1
            yield from rec(pos + 1, nm)
            counts[s] -= 1
            seen.discard(nm)

    return rec(0, 0)


def enumerate_z_words(ell: int) -> list[tuple[int, ...]]:
    return list(iter_z_words(ell))


def count_z_words(ell: int) -> int:
    """|Z(l)| without materializing the words.

    Every word of Z(l) uses all l symbols, each exactly twice, so |Z(l)| is
    l! times count_canonical_words(l, l).
    """
    _check_z_args(ell, ell)
    return count_canonical_words(ell, ell) * math.factorial(ell)  # refuses before l! is built


def _z_from_word_count(count: int, ell: int, k: int) -> int:
    """Exactly count * 2^k / 4l for `count` words of 2l-cycles in Q_k."""
    num = count << k
    if num % (4 * ell):
        raise NonIntegralResult(
            f"{count} words * 2^{k} = {num} is not divisible by {4 * ell}"
        )
    return num // (4 * ell)


def z_kl(k: int, ell: int) -> int:
    """Number of 2l-cycles in Q_k whose edges use all k star positions.

    Zero exactly when k > l or k < ceil(log2(2l)); otherwise k! * 2^k / 4l
    times count_canonical_words(k, l).
    """
    _check_z_args(k, ell)
    if not z_positive(k, ell):
        return 0
    # the count first: it refuses k > 12 before k! is built, which overflows at
    # k = 2^63 and runs unbounded long before that
    return _z_from_word_count(count_canonical_words(k, ell) * math.factorial(k), ell, k)


def z_ll_via_words(ell: int) -> int:
    """z_{l,l} = |Z(l)| * 2^l / 4l: the diagonal of z_kl, whose word count there is |Z(l)|."""
    return z_kl(ell, ell)
