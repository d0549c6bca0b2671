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
diagonal, and ZTable memoizes it with an optional cache file. The listing
iter_z_words is a separate DFS, an oracle for |Z(l)|.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator

from ._kernels import count_words_kernel
from ._version import __version__
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


class ZTable:
    """Memoized z_kl values with optional text-file persistence.

    File lines are `z <k> <l> <value>`; a `# cubeturan-ztable <version>`
    header keys the cache to the tool version. A cache of another version, or
    with a malformed line, a line whose key z never stores (see
    z_positive) or a zero value, or bytes that are not UTF-8, is stale:
    it is ignored and rewritten on the next save, which replaces the file
    atomically. Zeros are never stored.
    """

    HEADER = "# cubeturan-ztable"

    def __init__(self, path=None):
        self.path = path
        self._values: dict[tuple[int, int], int] = {}
        if path is not None and os.path.exists(path):
            self._load(path)

    def _load(self, path) -> None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError:
            return  # not even text: recompute rather than trust it
        if not lines or lines[0].strip() != f"{self.HEADER} {__version__}":
            return  # stale or foreign cache: recompute rather than trust it
        values = {}
        for line in lines[1:]:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 4 or parts[0] != "z" or not "".join(parts[1:]).isdecimal():
                return  # truncated or corrupt: recompute rather than trust any of it
            try:
                k, ell, value = map(int, parts[1:])
            except ValueError:
                return  # past int()'s 4300 digits: as corrupt as a malformed line
            if not (z_positive(k, ell) and value > 0):
                return  # a key z never stores: as corrupt as a malformed line
            values[k, ell] = value
        self._values = values

    def save(self) -> None:
        path = self.path
        if path is None:
            return
        lines = [f"{self.HEADER} {__version__}"]
        lines += [f"z {k} {ell} {v}" for (k, ell), v in sorted(self._values.items())]
        import tempfile

        try:
            fd, tmp = tempfile.mkstemp(prefix=".ztable-", dir=os.path.dirname(os.path.abspath(path)))
            try:
                with open(fd, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write("\n".join(lines) + "\n")
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:  # name the cache, not the temporary file beside it
            raise type(exc)(exc.errno, exc.strerror, path) from exc

    def get(self, k: int, ell: int) -> int:
        if (k, ell) not in self._values and (value := z_kl(k, ell)):
            self._values[k, ell] = value
            self.save()
        return self._values.get((k, ell), 0)

    def __getitem__(self, key: tuple[int, int]) -> int:
        return self.get(*key)

    def __contains__(self, key) -> bool:
        return key in self._values
